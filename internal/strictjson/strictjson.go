// Package strictjson decodes the hand-edited JSON inputs — machine
// configs, sweep specs and workload profiles — strictly. An unknown
// field, an object key given twice at any depth, or anything after the
// one top-level value is an error: encoding/json would ignore the
// field, keep the key's last value and stop reading at the value's
// end, and so run something other than what the file says.
package strictjson

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Decode reads one JSON value from r into v; what names the value in
// errors ("machine object").
func Decode(r io.Reader, v any, what string) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("reading %s: %w", what, err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decoding %s: %w", what, err)
	}
	if tok, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("trailing data after the %s (next token %v, err %v)", what, tok, err)
	}
	if key := repeatedKey(json.NewDecoder(bytes.NewReader(data)), ""); key != "" {
		return fmt.Errorf("%s: repeated key %q", what, key)
	}
	return nil
}

// repeatedKey walks the next value of dec, which the decode has proved
// well formed, and returns the path of the first object key its object
// already holds, or "". Keys compare as encoding/json matches them to
// struct fields, without regard to case.
func repeatedKey(dec *json.Decoder, path string) string {
	open, _ := dec.Token()
	if open != json.Delim('{') && open != json.Delim('[') {
		return ""
	}
	seen := map[string]bool{}
	for i := 0; dec.More(); i++ {
		p := path + "[" + strconv.Itoa(i) + "]"
		if open == json.Delim('{') {
			tok, _ := dec.Token()
			key := tok.(string)
			p = key
			if path != "" {
				p = path + "." + key
			}
			if seen[strings.ToLower(key)] {
				return p
			}
			seen[strings.ToLower(key)] = true
		}
		if key := repeatedKey(dec, p); key != "" {
			return key
		}
	}
	dec.Token() // the closing delimiter
	return ""
}
