package main

import (
	"strings"
	"testing"

	"spatialdom/internal/lint"
)

func TestSelectChecks(t *testing.T) {
	all := len(lint.Checks())
	cases := []struct {
		list    string
		want    int    // checks selected
		unknown string // the name the error must quote; "" = no error
	}{
		{"", all, ""},
		{"hotpath-alloc", 1, ""},
		{"ctx-flow, hotpath-alloc,ctx-flow", 2, ""},
		{"wal-order", 0, "wal-order"},
		{"hotpath-alloc,bench-hygiene", 0, "bench-hygiene"},
		{"no-reflect-sort,hotpath-alloc", 0, "no-reflect-sort"},
		{"hotpath-alloc,", 0, `""`},
	}
	for _, tc := range cases {
		got, err := selectChecks(tc.list)
		if tc.unknown != "" {
			if err == nil || !strings.Contains(err.Error(), tc.unknown) || !strings.Contains(err.Error(), "-list") {
				t.Errorf("-checks %q: error %v, want one quoting %s with the -list hint", tc.list, err, tc.unknown)
			}
			continue
		}
		if err != nil || len(got) != tc.want {
			t.Errorf("-checks %q: %d checks, error %v; want %d", tc.list, len(got), err, tc.want)
		}
	}
}
