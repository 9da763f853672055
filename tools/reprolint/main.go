// Command reprolint runs the repro analyzer suite (see
// internal/analysis) over the module: wallclock, hotpathalloc,
// lockfreeread, atomicpub, and falseshare, driven by //repro: directive
// comments.
//
// Usage:
//
//	go run ./tools/reprolint ./...
//	go run ./tools/reprolint internal/core internal/ensemble
//
// Exit status: 0 clean, 1 findings, 2 load or usage error. Output is
// one finding per line in the standard file:line:col: form, so editors
// and CI annotate it like any other Go tool.
//
// reprolint is stdlib-only: it parses and type-checks the module with
// go/types and the source importer, so it builds in the main module
// with no external dependencies.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/analysis"
)

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: reprolint [-list] [-only name,...] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := analysis.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-14s %s (waiver: //repro:%s)\n", a.Name, a.Doc, a.Waiver)
		}
		return
	}
	if *only != "" {
		byName := map[string]*analysis.Analyzer{}
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, name := range splitComma(*only) {
			a, ok := byName[name]
			if !ok {
				fmt.Fprintf(os.Stderr, "reprolint: unknown analyzer %q\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	pkgs, err := analysis.Load("", flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	diags := analysis.Run(pkgs, analyzers)
	cwd, _ := os.Getwd()
	for _, d := range diags {
		pos := d.Pos
		if cwd != "" {
			if rel, err := filepath.Rel(cwd, pos.Filename); err == nil && !filepath.IsAbs(rel) {
				pos.Filename = rel
			}
		}
		fmt.Printf("%s:%d:%d: %s: %s\n", pos.Filename, pos.Line, pos.Column, d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "reprolint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

func splitComma(s string) []string {
	var out []string
	for len(s) > 0 {
		i := 0
		for i < len(s) && s[i] != ',' {
			i++
		}
		if i > 0 {
			out = append(out, s[:i])
		}
		if i == len(s) {
			break
		}
		s = s[i+1:]
	}
	return out
}
