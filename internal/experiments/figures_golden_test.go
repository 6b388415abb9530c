package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden figure tables")

// TestFigureGoldens pins the rendered Poisson-cell figure tables at a tiny
// scale, byte for byte. Every figure here resolves its runs through
// Cell.RunConfig, so a change to how a cell becomes a run — topology,
// traffic, RTT model — shows up as a table diff. Fig7 and Fig12 are left
// out: their data-mining cells are several times slower at this scale.
func TestFigureGoldens(t *testing.T) {
	sc := Scale{FlowCount: 40, LeafSpineFlowCount: 80, Seeds: []int64{1}, Loads: []float64{0.5}}
	for _, id := range []string{"fig2", "fig3", "fig6", "fig8", "fig9"} {
		t.Run(id, func(t *testing.T) {
			e, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			for _, tb := range e.Run(sc) {
				b.WriteString(tb.String())
			}
			got := b.String()

			golden := filepath.Join("testdata", id+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run `go test ./internal/experiments -run TestFigureGoldens -update` to regenerate)", err)
			}
			if got != string(want) {
				t.Errorf("%s table drifted from %s:\ngot:\n%s\nwant:\n%s", id, golden, got, want)
			}
		})
	}
}
