package analysis_test

import (
	"bytes"
	"go/format"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"github.com/gloss/active/internal/analysis"
	"github.com/gloss/active/internal/analysis/actoronly"
	"github.com/gloss/active/internal/analysis/atomicstats"
	"github.com/gloss/active/internal/analysis/detsim"
	"github.com/gloss/active/internal/analysis/driver"
	"github.com/gloss/active/internal/analysis/frozenmut"
	"github.com/gloss/active/internal/analysis/wirecomplete"
)

// moduleRoot is the module's root, seen from this package's directory.
const moduleRoot = "../.."

// TestModuleAnalyzers runs the vetactive suite over every package of the
// module, its in-package and external tests included, and fails with
// each finding.
func TestModuleAnalyzers(t *testing.T) {
	t.Chdir(moduleRoot)
	diags, err := driver.RunStandalone([]*analysis.Analyzer{
		detsim.Analyzer,
		actoronly.Analyzer,
		frozenmut.Analyzer,
		atomicstats.Analyzer,
		wirecomplete.Analyzer,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Error(d)
	}
}

// retired names the reference-path switches, the second index's option,
// the shared config block, simnet's partitioned execution, the fan-out
// pool's size knob, a second send path for a publish (the pool, its
// drain and the concurrent-send capability it needed), Siena
// advertisements, runtime registry refresh, the store's buffer for
// chunks ahead of their manifest, the endpoint capability for a send
// to self (netapi.Loop owns that rule on both substrates) and the TCP
// peer table's lock (its actor loop owns the table, so senders are on
// the loop), GIS replication in the knowledge syncer with its second
// constructor (each node's GIS is installed where the node is built),
// simnet's switch that turned traffic accounting off, and the overlay's
// hex-string ID lists (its messages carry ids.ID). The old paths
// are _test.go oracles or seams, not options, and the three before the
// send-to-self names carried no traffic.
var retired = regexp.MustCompile(`\b(Legacy[A-Z][A-Za-z]*|CloneFanout|DisableIndex|DisableBatching|DisableShedding|MatchShards|nodecfg|Shards|ExecPartitions|Partitioned|FanoutWorkers|fanout-workers|fanoutPool|DrainFanout|ConcurrentSender|ConcurrentSends|UseAdvertisements|AdvMsg|UnadvMsg|RefreshRegistry|maxEarlyChunks|LocalDeliverer|DeliverLocal|peersMu|PublishGIS|FetchGIS|GISKey|EncodeVersionedGIS|DecodeVersionedGIS|NewSyncerOpts|DisableMetrics|sendObjectPinned|pushReplicaPinned|handleReplicate|handleCacheFill|idsToStrings)\b`)

// TestRetiredNamesStayRetired fails when a retired name returns to a
// shipped file: any non-test .go file under cmd, internal and examples,
// testdata included, and active.go.
func TestRetiredNamesStayRetired(t *testing.T) {
	t.Chdir(moduleRoot)
	files := []string{"active.go"}
	for _, dir := range []string{"cmd", "internal", "examples"} {
		files = append(files, goFiles(t, dir)...)
	}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			if m := retired.FindString(line); m != "" {
				t.Errorf("%s:%d: retired name %s in shipped code", name, i+1, m)
			}
		}
	}
}

// TestGofmt fails on a .go file of the module that gofmt would change.
func TestGofmt(t *testing.T) {
	t.Chdir(moduleRoot)
	for _, name := range goFiles(t, ".") {
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if out, err := format.Source(src); err != nil {
			t.Errorf("%s: %v", name, err)
		} else if !bytes.Equal(out, src) {
			t.Errorf("%s: not gofmt'd; run gofmt -w %s", name, name)
		}
	}
}

// goFiles lists the .go files under dir, as gofmt -l would walk it,
// leaving out the bench module.
func goFiles(t *testing.T, dir string) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir():
			if path == "bench" || path == ".git" {
				return filepath.SkipDir
			}
		case strings.HasSuffix(path, ".go") && !strings.HasPrefix(d.Name(), "."):
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}
