package workload

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestProfileJSONRoundTrip(t *testing.T) {
	for _, p := range Profiles() {
		var buf bytes.Buffer
		if err := SaveProfile(&buf, p); err != nil {
			t.Fatalf("save %s: %v", p.Name, err)
		}
		got, err := LoadProfile(&buf)
		if err != nil {
			t.Fatalf("load %s: %v", p.Name, err)
		}
		if got != p {
			t.Fatalf("round trip mismatch for %s:\n got %+v\nwant %+v", p.Name, got, p)
		}
	}
}

func TestSaveProfileRejectsInvalid(t *testing.T) {
	bad := Profiles()[0]
	bad.KernelShare = 2
	if err := SaveProfile(&bytes.Buffer{}, bad); err == nil {
		t.Fatal("invalid profile saved")
	}
}

func TestLoadProfileRejectsInvalid(t *testing.T) {
	cases := []string{
		`not json`,
		`{"name":""}`,
		`{"name":"x","unknown_field":1}`,
		`{"name":"x","kernel_share":1.5,"user_working_set_kb":64,"kernel_working_set_kb":64,"user_burst_mean":10}`,
	}
	for _, in := range cases {
		if _, err := LoadProfile(strings.NewReader(in)); err == nil {
			t.Errorf("LoadProfile(%q) succeeded, want error", in)
		}
	}
}

// LoadProfile reads exactly one profile: a second object or stray
// bytes after it are an error, not silently ignored.
func TestLoadProfileRejectsTrailingData(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveProfile(&buf, Profiles()[0]); err != nil {
		t.Fatal(err)
	}
	for _, tail := range []string{
		`{"name": "second"} trailing garbage`,
		`{"name": "second"}`,
		`trailing garbage`,
	} {
		doc := buf.String() + tail
		if _, err := LoadProfile(strings.NewReader(doc)); err == nil || !strings.Contains(err.Error(), "trailing data") {
			t.Errorf("profile followed by %q: err = %v, want a trailing-data error", tail, err)
		}
	}
	if _, err := LoadProfile(strings.NewReader(buf.String() + "\n\n")); err != nil {
		t.Fatalf("profile with trailing whitespace rejected: %v", err)
	}
}

func TestLoadProfileFile(t *testing.T) {
	p := Profiles()[2]
	path := filepath.Join(t.TempDir(), "p.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveProfile(f, p); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := LoadProfileFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != p.Name || got.UserWorkingSet != p.UserWorkingSet {
		t.Fatalf("file round trip mismatch: %+v", got)
	}
	if _, err := LoadProfileFile("/does/not/exist.json"); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestLoadedProfileGenerates(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveProfile(&buf, Profiles()[0]); err != nil {
		t.Fatal(err)
	}
	p, err := LoadProfile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := Generate(p, 1, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1000 {
		t.Fatalf("generated %d records", len(recs))
	}
}

// LoadProfile rejects a repeated key and names it: encoding/json alone
// keeps the last value.
func TestLoadProfileRejectsRepeatedKey(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveProfile(&buf, Profiles()[0]); err != nil {
		t.Fatal(err)
	}
	doc := strings.Replace(buf.String(), `"kernel_share":`, `"kernel_share": 0.9, "kernel_share":`, 1)
	if doc == buf.String() {
		t.Fatal("saved profile has no kernel_share")
	}
	if _, err := LoadProfile(strings.NewReader(doc)); err == nil || !strings.Contains(err.Error(), `repeated key "kernel_share"`) {
		t.Fatalf("profile with kernel_share given twice: err = %v, want a repeated-key error", err)
	}
}
