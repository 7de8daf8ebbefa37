package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// runMain runs the command in-process with args and returns what it
// printed on stdout. A failing command exits the test binary.
func runMain(t *testing.T, args ...string) []byte {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	stdout, argv := os.Stdout, os.Args
	os.Stdout, os.Args = w, append([]string{"vodcluster"}, args...)
	defer func() { os.Stdout, os.Args = stdout, argv }()
	main()
	w.Close()
	return <-out
}

// TestCommandOutputPinned pins the sha256 of stdout for the CI smoke
// command lines and for lines that between them set every flag of
// every subcommand to a non-default value, so a change to how flags
// become engine configs cannot move a printed byte unnoticed.
func TestCommandOutputPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs cluster simulations")
	}
	dir := t.TempDir()
	catalog := filepath.Join(dir, "catalog.json")
	if err := os.WriteFile(catalog, []byte(`{"movies":[
		{"name":"a","length":90,"wait":1,"targetHit":0.5,"popularity":3,"dur":"exp:5","think":"exp:15"},
		{"name":"b","length":120,"wait":2,"targetHit":0.6,"popularity":2,"dur":"exp:6","durFF":"gamma:2:3","think":"exp:20"},
		{"name":"c","length":100,"wait":1.5,"targetHit":0.4,"popularity":1,"pff":0.3,"prw":0.3,"ppau":0.4,"dur":"exp:4"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		args []string
		want string
	}{
		{"ci plan", []string{"plan", "-nodes", "3"},
			"453c3895bb2c586356a9e20f35bae1a23f34030216ef9de2083cd406b9a24e78"},
		{"ci simulate", []string{"simulate", "-nodes", "3", "-replicas", "2", "-hot", "1", "-headroom", "2",
			"-lambda", "1.5", "-horizon", "400", "-warmup", "50", "-fail", "node2@150"},
			"b3768ae2234179bc49c8c6edbefa1dc8ef2edb75dbabd3ad7a3f9171628e0783"},
		{"ci churn", []string{"churn", "-nodes", "4", "-movies", "6", "-node-streams", "300",
			"-node-buffer", "200", "-lambda", "0.5", "-flash", "m01@300:4", "-budget-mb", "20000",
			"-horizon", "900", "-warmup", "100", "-seed", "7", "-interval", "10"},
			"5a778c17d162541a1adfc90c7551bc69860bb7b210f1afae16058554d8f46a88"},
		{"ci gray", []string{"churn", "-nodes", "4", "-movies", "6", "-node-streams", "300",
			"-node-buffer", "200", "-lambda", "0.5", "-replicas", "2", "-controller=false",
			"-gray", "slow:node0@200-600:12,brownout:node2@300-700:0.4",
			"-policy", "hedge", "-horizon", "900", "-warmup", "100", "-seed", "7"},
			"039f04b49d7cc78a4455f6ddd5232aac287f27c72e4831e766e188ac90eee257"},
		{"default plan", nil,
			"453c3895bb2c586356a9e20f35bae1a23f34030216ef9de2083cd406b9a24e78"},
		{"plan zipf", []string{"plan", "-nodes", "4", "-movies", "12", "-theta", "0.6",
			"-replicas", "2", "-hot", "4", "-headroom", "1.5", "-parallel", "2"},
			"bdb71ba973a844fcdf0858edcc6c5cd4a194d4b57d39221f259439de9f2819ea"},
		{"plan catalog", []string{"plan", "-catalog", catalog, "-nodes", "2",
			"-node-streams", "400", "-node-buffer", "300"},
			"91765afc5cd9b907ca2455f544d5e1042a333a2905cdd2d8bb545d076352b482"},
		{"simulate hybrid", []string{"simulate", "-movies", "5", "-theta", "1.0", "-nodes", "3",
			"-replicas", "2", "-lambda", "4", "-horizon", "600", "-warmup", "0", "-seed", "3",
			"-engine", "hybrid", "-fluid-threshold", "1", "-particle-rate", "20",
			"-fail", "node1@200-400", "-parallel", "2", "-resume", filepath.Join(dir, "sim")},
			"f309bac00e3a9e810771e3fa21c6362c0480f4f3b54ef5afb15ba00795eaf13f"},
		{"simulate catalog", []string{"simulate", "-catalog", catalog, "-nodes", "2",
			"-node-streams", "400", "-node-buffer", "300", "-lambda", "2", "-horizon", "500",
			"-engine", "fluid"},
			"4bfe81dd67eddf1af3956d769edc74a203c6d2817359feecea8e83fc839cd109"},
		{"sweep", []string{"sweep", "-movies", "4", "-min-nodes", "2", "-max-nodes", "3",
			"-replicas", "2", "-hot", "1", "-headroom", "1.8", "-lambda", "1", "-horizon", "400",
			"-warmup", "40", "-seed", "2", "-engine", "hybrid", "-fluid-threshold", "0.3",
			"-particle-rate", "10", "-parallel", "1", "-resume", filepath.Join(dir, "sweep")},
			"fcfd41ea206c8c14d8b2324ff8074c2c497acc0c84910bbe42dcf957055ba027"},
		{"churn every knob", []string{"churn", "-movies", "6", "-theta", "0.9", "-nodes", "4",
			"-node-streams", "300", "-node-buffer", "200", "-replicas", "2", "-hot", "3",
			"-lambda", "0.6", "-horizon", "800", "-warmup", "80", "-seed", "5",
			"-fail", "node3@500-650",
			"-gray", "slow:node0@100-500:12,jitter:node1:d1@150-400:3,brownout:node2:d2@200-300:0.5",
			"-node-disks", "3", "-disk-health", "-policy", "hedge", "-starve-wait", "6",
			"-evacuate-dwell", "20", "-hedge-budget", "8", "-flash", "m02@300:8:10:60:30",
			"-diurnal-period", "400", "-diurnal-amp", "0.2", "-drift-theta1", "0.4",
			"-drift-period", "600", "-rotate", "150", "-epoch", "5", "-budget-mb", "30000",
			"-migrations", "3", "-interval", "12", "-window", "45",
			"-resume", filepath.Join(dir, "churn"), "-checkpoint-every", "500"},
			"656f0a8372091716ca69c2426033444b1ba8d5aefc997d32262e166ca2401eb8"},
		{"churn evacuate", []string{"churn", "-nodes", "4", "-movies", "6", "-node-streams", "400",
			"-node-buffer", "200", "-lambda", "6", "-replicas", "2", "-gray", "slow:node0@200-900:12",
			"-policy", "hedge", "-evacuate-dwell", "10", "-hedge-budget", "4", "-migrations", "1",
			"-interval", "10", "-budget-mb", "200000", "-horizon", "1200", "-warmup", "100", "-seed", "7"},
			"13a3d872261224113b66b325f9d5fe640a570795baa2180aa3a7e39a4f2edf74"},
		{"churn rotate", []string{"churn", "-catalog", catalog, "-nodes", "3", "-headroom", "1.6",
			"-lambda", "0.8", "-horizon", "600", "-warmup", "0", "-rotate", "100",
			"-policy", "health", "-diurnal-period", "300"},
			"892046a209ed29b9d14ca5533f033d2ad80974f81562ca86a34c4f3c40eba6ed"},
	} {
		t.Run(c.name, func(t *testing.T) {
			sum := sha256.Sum256(runMain(t, c.args...))
			if got := hex.EncodeToString(sum[:]); got != c.want {
				t.Errorf("stdout sha256 %s, want %s", got, c.want)
			}
		})
	}
}
