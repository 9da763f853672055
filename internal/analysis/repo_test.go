package analysis

import (
	"slices"
	"sync"
	"testing"
)

// loadRepo type-checks the whole module, once for all the tests here.
var loadRepo = sync.OnceValues(func() ([]*Package, error) {
	return Load("../..", []string{"./..."})
})

// TestReprolintRepoClean runs the full analyzer suite over the whole
// module and fails on any finding: the reprolint gate, enforced by the
// ordinary test run so a bare `go test ./...` already rejects a
// wall-clock read in a deterministic package or an unwaived hot-path
// allocation — CI wiring is a second line, not the only one.
func TestReprolintRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short runs")
	}
	pkgs, err := loadRepo()
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages — the module walk is broken", len(pkgs))
	}
	diags := Run(pkgs, All())
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if len(diags) > 0 {
		t.Logf("fix the construct, or waive it with a reasoned //repro:<kind>-ok comment (see internal/analysis/doc.go)")
	}
}

// TestFalseShareCoversTheHandOff: TestReprolintRepoClean says the
// //repro:polled words in the tree are laid out right; this says the
// tree's polled words are the four the writer→reader hand-off goes
// through, so that a directive lost in a refactor does not turn the
// gate vacuous.
func TestFalseShareCoversTheHandOff(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short runs")
	}
	pkgs, err := loadRepo()
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	var got []string
	for _, pkg := range pkgs {
		for _, w := range polledWords(pkg.Files, pkg.Info) {
			got = append(got, pkg.ImportPath+"."+w.owner.Name.Name+"."+w.st.Field(w.index).Name())
		}
	}
	slices.Sort(got)
	want := []string{
		"repro.Clock.sync",
		"repro.Ensemble.ens",
		"repro/internal/core.pubState.p",
		"repro/internal/ensemble.ensemblePub.p",
	}
	if !slices.Equal(got, want) {
		t.Errorf("//repro:polled words in the module:\n got  %q\n want %q", got, want)
	}
}
