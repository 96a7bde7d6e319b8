package exp

import "testing"

// TestT17KnowledgeQuick smoke-runs the table in quick mode: every row
// must fully converge with zero lost writes. (That last-writer-wins sync
// loses them is pinned by TestLegacySyncLosesConcurrentWrites in
// internal/knowledge.)
func TestT17KnowledgeQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("table run")
	}
	tab := T17Knowledge(true)
	for _, writers := range []string{"2", "3"} {
		if lost := tab.Cell("lost facts", "writers", writers); lost != "0" {
			t.Errorf("%s writers: lost %s facts", writers, lost)
		}
		if conv := tab.Cell("converged", "writers", writers); conv != "10/10" || tab.Cell("converge ms", "writers", writers) == "never" {
			t.Errorf("%s writers: converged on %s nodes", writers, conv)
		}
	}
}
