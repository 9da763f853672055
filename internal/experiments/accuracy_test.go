package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// TestAccuracyGolden reruns the full-size evaluation, requires every
// check to pass, and holds the sweep's record byte for byte to the
// committed testdata/accuracy.json. There is no update flag: a change
// that means to move a digit regenerates the record, the one way there
// is — `go run ./cmd/experiments -run all -out DIR`, then copy
// DIR/accuracy.json over it — and says why; diffing the two files shows
// what moved.
func TestAccuracyGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("the full-size sweep takes seconds")
	}
	want, err := os.ReadFile("testdata/accuracy.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden []accuracy
	if err := json.Unmarshal(want, &golden); err != nil || len(golden) != len(IDs()) {
		t.Fatalf("the record holds %d experiments, the registry %d (%v)", len(golden), len(IDs()), err)
	}
	reps := make([]*Report, len(IDs()))
	t.Run("sweep", func(t *testing.T) {
		for i, id := range IDs() {
			t.Run(id, func(t *testing.T) {
				t.Parallel()
				rep, err := Run(id, Options{})
				if err != nil {
					t.Fatal(err)
				}
				if reps[i] = rep; !rep.Passed() {
					t.Errorf("a check failed:\n%s", rep.Render())
				}
				checkRecorded(t, rep)
				if !reflect.DeepEqual(accuracyOf(rep), golden[i]) {
					t.Error("moved from the record")
				}
			})
		}
	})
	if !t.Failed() && !bytes.Equal(AccuracyJSON(reps), want) {
		t.Error("the sweep's record is not testdata/accuracy.json byte for byte")
	}
}
