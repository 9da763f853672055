package experiments

import (
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	ids := IDs()
	want := []string{"table1", "table2", "fig2", "fig3", "fig4", "fig5",
		"fig6", "fig7", "fig8", "fig9a", "fig9b", "fig9c", "fig10",
		"fig11a", "fig11b", "fig11c", "fig11d", "fig12", "baseline",
		"ablation", "ensemble", "select", "asym", "longrun", "chaos"}
	if len(ids) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(ids), len(want))
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Errorf("registry[%d] = %q, want %q", i, ids[i], want[i])
		}
		if Title(want[i]) == "" {
			t.Errorf("missing title for %q", want[i])
		}
	}
}

func TestUnknownID(t *testing.T) {
	if _, err := Run("nope", Options{}); err == nil {
		t.Error("unknown id accepted")
	}
}

// TestAllExperimentsQuick runs every experiment in quick mode and
// requires every shape check to pass. This is the repository's
// integration test: the full paper evaluation end to end, scaled down.
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiment sweep still takes seconds")
	}
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			rep, err := Run(id, Options{Quick: true})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if len(rep.Checks) == 0 {
				t.Fatal("experiment has no checks")
			}
			for _, c := range rep.Checks {
				if !c.Pass() {
					t.Errorf("check %q: want %s, got %s", c.Name, c.Want(), c.Got())
				}
			}
			if !strings.Contains(rep.Render(), rep.ID) {
				t.Error("render missing ID")
			}
		})
	}
}

func TestArtifactsSaved(t *testing.T) {
	dir := t.TempDir()
	rep, err := Run("table1", Options{Quick: true, OutputDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables) == 0 {
		t.Error("no tables recorded")
	}
}
