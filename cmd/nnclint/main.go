// Command nnclint runs the project's static-analysis suite (see
// internal/lint) over the module tree and prints findings as
// "file:line:col: [check] message". Exit status: 0 clean, 1 findings,
// 2 usage (an unknown -checks name, before anything is loaded) or
// load/type-check failure.
//
// Usage:
//
//	nnclint [-root dir] [-checks name,name,...] [-json file] [-annotate]
//
// -json writes the findings as a machine-readable array (empty array when
// clean — the file is always written, so CI can upload it unconditionally).
// -annotate additionally prints GitHub workflow commands
// (::error file=...) so findings surface inline on the pull request diff.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"spatialdom/internal/lint"
)

// jsonFinding is the -json wire shape: one object per finding, stable
// field names for the CI annotation step and any later tooling.
type jsonFinding struct {
	File  string `json:"file"`
	Line  int    `json:"line"`
	Col   int    `json:"col"`
	Check string `json:"check"`
	Msg   string `json:"msg"`
}

func writeJSON(path string, diags []lint.Diagnostic) error {
	out := make([]jsonFinding, 0, len(diags))
	for _, d := range diags {
		out = append(out, jsonFinding{
			File: d.Pos.Filename, Line: d.Pos.Line, Col: d.Pos.Column,
			Check: d.Check, Msg: d.Msg,
		})
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// annotate prints one GitHub workflow command per finding. Newlines and
// the %-escapes GitHub assigns meaning to are escaped per the workflow
// command spec so a multi-line message cannot smuggle a second command.
func annotate(diags []lint.Diagnostic) {
	esc := strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A")
	for _, d := range diags {
		fmt.Printf("::error file=%s,line=%d,col=%d::[%s] %s\n",
			d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, esc.Replace(d.Msg))
	}
}

// selectChecks resolves a -checks list against the registry, in registry
// order; the empty list is the whole suite. A name the registry does not
// know is an error here, before anything is loaded or run.
func selectChecks(list string) ([]lint.Check, error) {
	all := lint.Checks()
	if list == "" {
		return all, nil
	}
	want := map[string]bool{}
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if !slices.ContainsFunc(all, func(c lint.Check) bool { return c.Name == name }) {
			return nil, fmt.Errorf("unknown check %q (use -list)", name)
		}
		want[name] = true
	}
	return slices.DeleteFunc(all, func(c lint.Check) bool { return !want[c.Name] }), nil
}

func main() {
	root := flag.String("root", ".", "module root (directory containing go.mod)")
	checks := flag.String("checks", "", "comma-separated subset of checks to run (default: all)")
	list := flag.Bool("list", false, "list available checks and exit")
	jsonOut := flag.String("json", "", "write findings as JSON to this file (always written, [] when clean)")
	annotations := flag.Bool("annotate", false, "also print GitHub ::error workflow commands per finding")
	flag.Parse()

	if *list {
		for _, c := range lint.Checks() {
			fmt.Println(c.Name)
		}
		return
	}

	run, err := selectChecks(*checks)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nnclint:", err)
		os.Exit(2)
	}
	prog, err := lint.LoadModule(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nnclint:", err)
		os.Exit(2)
	}
	diags := lint.Run(prog, run)

	for _, d := range diags {
		fmt.Println(d)
	}
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, diags); err != nil {
			fmt.Fprintln(os.Stderr, "nnclint: writing -json:", err)
			os.Exit(2)
		}
	}
	if *annotations {
		annotate(diags)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "nnclint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
