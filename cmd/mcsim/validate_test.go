package main

import (
	"bytes"
	"strings"
	"testing"
)

// Bad flag values fail before any config or trace file is touched —
// in particular a negative -accesses, which would otherwise wrap to an
// enormous uint64 replay bound.
func TestFailFastValidation(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-accesses", "-1"}, "-accesses"},
		{[]string{"-accesses", "-1", "-trace", "nonexistent.mctr"}, "-accesses"},
		{[]string{"-sample", "3"}, "-sample"},
		{[]string{"-sample", "1/0"}, "-sample"},
	}
	for _, tc := range cases {
		var out bytes.Buffer
		err := run(tc.args, &out)
		if err == nil {
			t.Errorf("run(%v) succeeded, want fail-fast error", tc.args)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v) error %q does not name %q", tc.args, err, tc.want)
		}
	}
}
