package experiments

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
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
			checkRecorded(t, rep)
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

// checkRecorded requires a report to record something — at least one
// figure or check — and every figure to be a finite number: a NaN or
// ±Inf figure is a broken measurement, not a result.
func checkRecorded(t *testing.T, rep *Report) {
	t.Helper()
	if len(rep.Figures)+len(rep.Checks) == 0 {
		t.Error("the report records no figure and no check")
	}
	for _, f := range rep.Figures {
		if math.IsNaN(f.Value) || math.IsInf(f.Value, 0) {
			t.Errorf("figure %q is %v", f.Name, f.Value)
		}
	}
}

// TestArtifactsSaved holds the files Run writes to the report it
// returns: DIR/<id>_<name>.tsv for every table, a materialized table's
// file byte-identical to its WriteTSV, a series' file holding every row
// appended and its preview the file's rows 0, s, 2s, … for one power of
// two s. A run without an output directory writes no file.
func TestArtifactsSaved(t *testing.T) {
	for _, id := range []string{"table1", "fig3", "fig11a", "chaos"} {
		t.Run(id, func(t *testing.T) {
			dir := t.TempDir()
			rep, err := Run(id, Options{Quick: true, OutputDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			appended := map[string]int{} // rows appended to each series
			for _, s := range rep.sinks {
				appended[s.name] = s.seen
			}
			if files, err := os.ReadDir(dir); err != nil || len(files) != len(rep.Tables) || len(files) == 0 {
				t.Fatalf("%d files for %d tables (%v)", len(files), len(rep.Tables), err)
			}
			for name, tab := range rep.Tables {
				data, err := os.ReadFile(filepath.Join(dir, id+"_"+name+".tsv"))
				if err != nil {
					t.Fatal(err)
				}
				var want bytes.Buffer
				if err := tab.WriteTSV(&want); err != nil {
					t.Fatal(err)
				}
				n, series := appended[name]
				if !series {
					if !bytes.Equal(data, want.Bytes()) {
						t.Errorf("%s: file is not the table's TSV", name)
					}
					continue
				}
				checkPreview(t, name, strings.SplitAfter(string(data), "\n"), strings.SplitAfter(want.String(), "\n"), n)
			}

			t.Chdir(t.TempDir()) // where a file without a directory would land
			if _, err := Run(id, Options{Quick: true}); err != nil {
				t.Fatal(err)
			}
			if files, _ := os.ReadDir("."); len(files) != 0 {
				t.Errorf("a run without an output directory wrote %d files", len(files))
			}
		})
	}
}

// checkPreview requires file (header, rows, a final empty string) to
// hold n rows and preview to be its header and rows 0, s, 2s, … for one
// power of two s.
func checkPreview(t *testing.T, name string, file, preview []string, n int) {
	t.Helper()
	rows, kept := len(file)-2, len(preview)-2
	if rows != n || kept < 1 || file[0] != preview[0] {
		t.Fatalf("%s: file holds %d rows of %d appended, preview %d", name, rows, n, kept)
	}
	s := 1
	for (rows+s-1)/s > kept {
		s *= 2
	}
	if (rows+s-1)/s != kept {
		t.Fatalf("%s: a preview of %d rows is no power-of-two decimation of %d", name, kept, rows)
	}
	for k := 0; k < kept; k++ {
		if preview[1+k] != file[1+k*s] {
			t.Fatalf("%s: preview row %d is not file row %d", name, k, k*s)
		}
	}
}
