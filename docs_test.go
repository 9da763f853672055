package tscclock

// Documentation checks, run in CI's docs job: every relative link in
// the top-level markdown files must resolve, every markdown file a Go
// comment cites must exist, every package must carry a package doc
// comment so `go doc` reads as a tour, and ARCHITECTURE.md's Knobs and
// Invariants tables must name fields, tests and analyzers that exist.

import (
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/ensemble"
	"repro/internal/ntp"
)

var mdLink = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)

// slugify approximates GitHub's heading-anchor slugs.
func slugify(heading string) string {
	s := strings.ToLower(strings.TrimSpace(heading))
	s = strings.ReplaceAll(s, " ", "-")
	return regexp.MustCompile(`[^a-z0-9\-_]`).ReplaceAllString(s, "")
}

// anchorsOf collects the heading anchors of a markdown file.
func anchorsOf(t *testing.T, path string) map[string]bool {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	anchors := map[string]bool{}
	inFence := false
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "```") {
			inFence = !inFence
			continue
		}
		if !inFence && strings.HasPrefix(line, "#") {
			anchors[slugify(strings.TrimLeft(line, "# "))] = true
		}
	}
	return anchors
}

// TestDocLinks verifies every relative link in the markdown files this
// repository maintains: linked files must exist, and anchors must match
// a heading. SNIPPETS.md and PAPERS.md are excluded — they are
// retrieved reference artifacts carrying links from their source
// repositories. External links (http/https/mailto) are deliberately
// not fetched — the check must work offline and in CI.
func TestDocLinks(t *testing.T) {
	mds := []string{"README.md", "ARCHITECTURE.md", "PERF.md", "ROADMAP.md", "CHANGES.md", "PAPER.md"}
	for _, md := range mds {
		if _, err := os.Stat(md); err != nil {
			t.Errorf("required doc %s missing: %v", md, err)
			continue
		}
		data, err := os.ReadFile(md)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") ||
				strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") {
				continue
			}
			path, frag, hasFrag := strings.Cut(target, "#")
			if path == "" { // same-file anchor
				if hasFrag && !anchorsOf(t, md)[frag] {
					t.Errorf("%s: broken anchor link %q", md, target)
				}
				continue
			}
			if _, err := os.Stat(filepath.FromSlash(path)); err != nil {
				t.Errorf("%s: broken link %q: %v", md, target, err)
				continue
			}
			if hasFrag && strings.HasSuffix(path, ".md") && !anchorsOf(t, path)[frag] {
				t.Errorf("%s: link %q points to a missing heading", md, target)
			}
		}
	}
}

// mdRef matches a markdown file cited by its upper-case name, with an
// optional directory in front (bench/README.md).
var mdRef = regexp.MustCompile(`(?:[\w.-]+/)*[A-Z][A-Z_]*\.md\b`)

// eachRepoFile calls fn with the path and contents of every file of
// the repository whose name ends in suffix, testdata and hidden
// directories excluded.
func eachRepoFile(t *testing.T, suffix string, fn func(path, src string)) {
	t.Helper()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == "testdata" || (name != "." && strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, suffix) {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fn(path, string(data))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestGoCommentDocRefs resolves every markdown file a Go comment cites,
// against the repository root or the citing file's own directory: a
// comment that sends the reader to a document must name one that exists.
func TestGoCommentDocRefs(t *testing.T) {
	eachRepoFile(t, ".go", func(path, src string) {
		for i, line := range strings.Split(src, "\n") {
			_, comment, ok := strings.Cut(line, "//")
			if !ok {
				continue
			}
			for _, ref := range mdRef.FindAllString(comment, -1) {
				_, atRoot := os.Stat(filepath.FromSlash(ref))
				_, beside := os.Stat(filepath.Join(filepath.Dir(path), filepath.FromSlash(ref)))
				if atRoot != nil && beside != nil {
					t.Errorf("%s:%d: comment cites %s, which does not exist", path, i+1, ref)
				}
			}
		}
	})
}

// architectureSection returns the body of ARCHITECTURE.md's "## name"
// section, up to the next second-level heading.
func architectureSection(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile("ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(data), "\n## "+name+"\n")
	if !ok {
		t.Fatalf("ARCHITECTURE.md has no %q section", name)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	return section
}

// knobRow matches a row of ARCHITECTURE.md's Knobs table and captures
// the field it names (`Type.Field`).
var knobRow = regexp.MustCompile("(?m)^\\| `([A-Za-z.]+)` \\|")

// TestKnobsDocumented: every field of the option structs has a row in
// ARCHITECTURE.md's "Knobs" table, and every row names a field that
// exists, so a knob is neither added nor removed without the table.
func TestKnobsDocumented(t *testing.T) {
	rows := map[string]bool{}
	for _, m := range knobRow.FindAllStringSubmatch(architectureSection(t, "Knobs"), -1) {
		rows[m[1]] = true
	}
	fields := map[string]bool{}
	for name, v := range map[string]any{
		"Options":          Options{},
		"EnsembleOptions":  EnsembleOptions{},
		"MultiLiveOptions": MultiLiveOptions{},
		"ensemble.Config":  ensemble.Config{},
		"core.Config":      core.Config{},
		"ntp.ServerConfig": ntp.ServerConfig{},
	} {
		typ := reflect.TypeOf(v)
		for i := range typ.NumField() {
			key := name + "." + typ.Field(i).Name
			fields[key] = true
			if !rows[key] {
				t.Errorf("ARCHITECTURE.md's Knobs table has no row for %s", key)
			}
		}
	}
	for key := range rows {
		if !fields[key] {
			t.Errorf("ARCHITECTURE.md's Knobs table has a row for %s, which is no field", key)
		}
	}
}

var (
	// backquoted captures each `name` of an Invariants row's
	// "Enforced by" cell.
	backquoted = regexp.MustCompile("`([^`]+)`")
	// testFunc captures the name of a test or fuzz function declaration.
	testFunc = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w*)\(`)
	// noneYet marks a row that is stated but not yet checked, and names
	// the ROADMAP item that will check it.
	noneYet = regexp.MustCompile(`none yet — ROADMAP \d+`)
)

// TestInvariantsEnforced holds ARCHITECTURE.md's Invariants table to
// the tree: every name an "Enforced by" cell quotes is a Test or Fuzz
// function some _test.go file defines or an analyzer of analysis.All(),
// every row quotes one or says "none yet — ROADMAP <item>", and every
// analyzer has a row.
func TestInvariantsEnforced(t *testing.T) {
	tests := map[string]bool{}
	eachRepoFile(t, "_test.go", func(_, src string) {
		for _, m := range testFunc.FindAllStringSubmatch(src, -1) {
			tests[m[1]] = true
		}
	})
	analyzers := map[string]bool{} // analyzer name → has a row
	for _, a := range analysis.All() {
		analyzers[a.Name] = false
	}

	rows := 0
	for _, line := range strings.Split(architectureSection(t, "Invariants"), "\n") {
		if !strings.HasPrefix(line, "| ") || strings.HasPrefix(line, "| Invariant |") {
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), " | ")
		if len(cells) != 3 {
			t.Errorf("Invariants row has %d cells, want 3: %s", len(cells), line)
			continue
		}
		rows++
		row, enforcers := strings.TrimSpace(cells[0]), cells[2]
		named := backquoted.FindAllStringSubmatch(enforcers, -1)
		for _, m := range named {
			name := m[1]
			if strings.HasPrefix(name, "Test") || strings.HasPrefix(name, "Fuzz") {
				if !tests[name] {
					t.Errorf("Invariants row %q names %s, which no _test.go file defines", row, name)
				}
				continue
			}
			if _, ok := analyzers[name]; !ok {
				t.Errorf("Invariants row %q names %s, which is neither a test nor an analyzer of analysis.All()", row, name)
				continue
			}
			analyzers[name] = true
		}
		if len(named) == 0 && !noneYet.MatchString(enforcers) {
			t.Errorf("Invariants row %q names no enforcer and does not say \"none yet — ROADMAP <item>\"", row)
		}
	}
	if rows == 0 {
		t.Fatal("ARCHITECTURE.md's Invariants section has no table rows")
	}
	for _, a := range analysis.All() {
		if !analyzers[a.Name] {
			t.Errorf("analyzer %s has no row in ARCHITECTURE.md's Invariants table", a.Name)
		}
	}
}

// TestPackageDocs requires a package doc comment ("// Package <name>
// ...") in every internal package, the root package, and every command
// ("// Command <name> ..."), so the godoc output tours the repository.
func TestPackageDocs(t *testing.T) {
	hasDoc := func(dir, prefix string) bool {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			for _, line := range strings.Split(string(data), "\n") {
				if strings.HasPrefix(line, prefix) {
					return true
				}
			}
		}
		return false
	}

	if !hasDoc(".", "// Package tscclock ") {
		t.Error("root package is missing its package doc comment")
	}
	for _, root := range []struct{ glob, kind string }{
		{"internal/*", "Package"},
		{"cmd/*", "Command"},
	} {
		dirs, err := filepath.Glob(root.glob)
		if err != nil {
			t.Fatal(err)
		}
		if len(dirs) == 0 {
			t.Fatalf("no directories match %s", root.glob)
		}
		for _, dir := range dirs {
			name := filepath.Base(dir)
			if !hasDoc(dir, "// "+root.kind+" "+name+" ") {
				t.Errorf("%s is missing a %q doc comment", dir, "// "+root.kind+" "+name)
			}
		}
	}
}

// TestChangesEntryCap holds CHANGES.md to one short entry per change.
// An entry is a "- PR N" line plus the indented lines under it; the
// FOUND:/MENDED: notes are lines of their own and do not count. From
// entry cappedFrom on, each number has one entry of at most
// changesEntryCap bytes: per-figure tables and test-by-test narration
// belong in the change's description, not in the running log. Older
// entries predate the cap and stay as written.
func TestChangesEntryCap(t *testing.T) {
	const cappedFrom, changesEntryCap = 47, 2000
	data, err := os.ReadFile("CHANGES.md")
	if err != nil {
		t.Fatal(err)
	}
	head := regexp.MustCompile(`^- PR (\d+)\b`)
	seen := map[int]bool{}
	pr, size := 0, 0
	closeEntry := func() {
		if pr >= cappedFrom && size > changesEntryCap {
			t.Errorf("CHANGES.md entry PR %d is %d bytes, over the %d-byte cap", pr, size, changesEntryCap)
		}
		pr = 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		switch m := head.FindStringSubmatch(line); {
		case m != nil:
			closeEntry()
			pr, _ = strconv.Atoi(m[1])
			size = len(line)
			if pr >= cappedFrom && seen[pr] {
				t.Errorf("CHANGES.md has a second entry for PR %d", pr)
			}
			seen[pr] = true
		case strings.HasPrefix(line, " "):
			size += 1 + len(line)
		default:
			closeEntry()
		}
	}
	closeEntry()
}
