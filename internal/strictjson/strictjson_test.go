package strictjson

import (
	"strings"
	"testing"
)

type inner struct {
	Ways int    `json:"ways"`
	Name string `json:"name"`
}

type outer struct {
	Name   string  `json:"name"`
	L2     inner   `json:"l2"`
	Segs   []inner `json:"segs"`
	Counts []int   `json:"counts"`
}

// TestDecode checks each rejection and its message, and that a clean
// document decodes.
func TestDecode(t *testing.T) {
	for _, c := range []struct {
		doc, want string
	}{
		{`{"name": "a", "l2": {"ways": 8}, "segs": [{"ways": 1}, {"ways": 2}], "counts": [1, 1]}`, ""},
		{"{\"name\": \"a\"}\n \t", ""},
		{`{"name": "a", "name": "b"}`, `repeated key "name"`},
		{`{"name": "a", "Name": "b"}`, `repeated key "Name"`},
		{`{"l2": {"ways": 8, "ways": 16}}`, `repeated key "l2.ways"`},
		{`{"segs": [{"ways": 1}, {"name": "x", "ways": 2, "name": "y"}]}`, `repeated key "segs[1].name"`},
		{`{"bogus": 1}`, `decoding thing: json: unknown field "bogus"`},
		{`{"l2": {"bogus": 1}}`, `unknown field "bogus"`},
		{`{"name": "a"} {"name": "b"}`, "trailing data after the thing"},
		{`{"name": "a"} garbage`, "trailing data after the thing"},
		{`{"name": "a",}`, "decoding thing"},
		{``, "decoding thing: EOF"},
	} {
		var v outer
		err := Decode(strings.NewReader(c.doc), &v, "thing")
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: %v", c.doc, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: err = %v, want one containing %q", c.doc, err, c.want)
		}
	}
}
