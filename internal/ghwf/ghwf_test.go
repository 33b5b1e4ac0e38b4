package ghwf

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func mustParse(t *testing.T, src string) *Node {
	t.Helper()
	n, err := Parse([]byte(src))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return n
}

func TestParseScalarMapSeq(t *testing.T) {
	n := mustParse(t, `
name: demo
list:
  - one
  - two
nested:
  inner: value
`)
	if got := n.Get("name").Str(); got != "demo" {
		t.Errorf("name = %q", got)
	}
	list := n.Get("list")
	if list.Kind != SeqNode || len(list.Seq) != 2 || list.Seq[1].Scalar != "two" {
		t.Errorf("list = %+v", list)
	}
	if got := n.Get("nested", "inner").Str(); got != "value" {
		t.Errorf("nested.inner = %q", got)
	}
	if !reflect.DeepEqual(n.Keys, []string{"name", "list", "nested"}) {
		t.Errorf("key order = %v", n.Keys)
	}
}

func TestParseSeqOfMaps(t *testing.T) {
	n := mustParse(t, `
steps:
  - name: first
    run: echo hi
  - name: second
    uses: actions/checkout@v4
    with:
      fetch-depth: 0
`)
	steps := n.Get("steps")
	if len(steps.Seq) != 2 {
		t.Fatalf("want 2 steps, got %d", len(steps.Seq))
	}
	if got := steps.Seq[0].Get("run").Str(); got != "echo hi" {
		t.Errorf("step 0 run = %q", got)
	}
	if got := steps.Seq[1].Get("with", "fetch-depth").Str(); got != "0" {
		t.Errorf("step 1 fetch-depth = %q", got)
	}
}

func TestParseLiteralBlock(t *testing.T) {
	n := mustParse(t, `
job:
  run: |
    first line
    if x; then
      indented
    fi
  after: yes
`)
	want := "first line\nif x; then\n  indented\nfi"
	if got := n.Get("job", "run").Str(); got != want {
		t.Errorf("literal block = %q, want %q", got, want)
	}
	if got := n.Get("job", "after").Str(); got != "yes" {
		t.Errorf("key after literal block = %q", got)
	}
}

func TestParseCommentsAndBlanks(t *testing.T) {
	n := mustParse(t, `
# leading comment
a: 1

# interior comment
b: 2
`)
	if n.Get("a").Str() != "1" || n.Get("b").Str() != "2" {
		t.Errorf("parsed %+v", n)
	}
}

func TestParseEmptyValue(t *testing.T) {
	n := mustParse(t, `
on:
  push:
  pull_request:
`)
	pr := n.Get("on", "pull_request")
	if pr == nil || pr.Kind != ScalarNode || pr.Scalar != "" {
		t.Errorf("bare trigger = %+v, want empty scalar", pr)
	}
}

func TestParseRejectsOutsideSubset(t *testing.T) {
	cases := map[string]string{
		"tab indent":     "a:\n\tb: 1\n",
		"flow sequence":  "a: [1, 2]\n",
		"flow map":       "a: {b: 1}\n",
		"anchor":         "a: &x 1\n",
		"alias":          "a: *x\n",
		"duplicate key":  "a: 1\na: 2\n",
		"empty document": "# nothing\n",
		"seq in map":     "a: 1\n- b\n",
		"over-indent":    "a:\n    b: 1\n  c: 2\n",
	}
	for name, src := range cases {
		if _, err := Parse([]byte(src)); err == nil {
			t.Errorf("%s: parsed without error", name)
		}
	}
}

func workflowNode(t *testing.T, body string) *Node {
	t.Helper()
	return mustParse(t, `
name: w
on:
  push:
jobs:
`+body)
}

func TestValidateRejectsBrokenJobs(t *testing.T) {
	cases := map[string]string{
		"missing runs-on": `
  j:
    steps:
      - run: true
`,
		"no steps": `
  j:
    runs-on: ubuntu-latest
`,
		"step with run and uses": `
  j:
    runs-on: ubuntu-latest
    steps:
      - run: true
        uses: actions/checkout@v4
`,
		"step with neither": `
  j:
    runs-on: ubuntu-latest
    steps:
      - name: hollow
`,
		"unpinned action": `
  j:
    runs-on: ubuntu-latest
    steps:
      - uses: actions/checkout
`,
		"empty matrix axis": `
  j:
    runs-on: ubuntu-latest
    strategy:
      matrix:
        go:
    steps:
      - run: true
`,
		"needs unknown job": `
  j:
    runs-on: ubuntu-latest
    needs: ghost
    steps:
      - run: true
`,
		"needs itself": `
  j:
    runs-on: ubuntu-latest
    needs: j
    steps:
      - run: true
`,
		"empty needs": `
  j:
    runs-on: ubuntu-latest
    needs:
    steps:
      - run: true
`,
		"timeout not a number": `
  j:
    runs-on: ubuntu-latest
    timeout-minutes: soon
    steps:
      - run: true
`,
		"timeout zero": `
  j:
    runs-on: ubuntu-latest
    timeout-minutes: 0
    steps:
      - run: true
`,
	}
	for name, body := range cases {
		if _, err := Validate(workflowNode(t, body)); err == nil {
			t.Errorf("%s: validated without error", name)
		}
	}
}

// TestValidateNeedsAndTimeout covers the dependency and timeout schema
// keys: scalar and sequence needs forms resolve against the job map, and
// timeout-minutes must be a positive integer.
func TestValidateNeedsAndTimeout(t *testing.T) {
	wf, err := Validate(workflowNode(t, `
  base:
    runs-on: ubuntu-latest
    steps:
      - run: true
  other:
    runs-on: ubuntu-latest
    steps:
      - run: true
  dependent:
    runs-on: ubuntu-latest
    needs: base
    timeout-minutes: 15
    steps:
      - run: true
  fanin:
    runs-on: ubuntu-latest
    needs:
      - base
      - other
    steps:
      - run: true
`))
	if err != nil {
		t.Fatalf("Validate: %v", err)
	}
	dep := wf.Jobs["dependent"]
	if !reflect.DeepEqual(dep.Needs, []string{"base"}) {
		t.Errorf("scalar needs = %v, want [base]", dep.Needs)
	}
	if dep.TimeoutMinutes != 15 {
		t.Errorf("timeout-minutes = %d, want 15", dep.TimeoutMinutes)
	}
	if fan := wf.Jobs["fanin"]; !reflect.DeepEqual(fan.Needs, []string{"base", "other"}) {
		t.Errorf("sequence needs = %v, want [base other]", fan.Needs)
	}
	if base := wf.Jobs["base"]; base.Needs != nil || base.TimeoutMinutes != 0 {
		t.Errorf("base got needs=%v timeout=%d, want zero values", base.Needs, base.TimeoutMinutes)
	}
}

// TestCIWorkflowIsValid is the repository's stand-in for actionlint: the
// committed pipeline definition must parse in the supported subset and
// satisfy the workflow schema checks.
func TestCIWorkflowIsValid(t *testing.T) {
	path := filepath.Join("..", "..", ".github", "workflows", "ci.yml")
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading %s: %v", path, err)
	}
	root, err := Parse(src)
	if err != nil {
		t.Fatalf("ci.yml does not parse in the supported subset: %v", err)
	}
	wf, err := Validate(root)
	if err != nil {
		t.Fatalf("ci.yml fails workflow validation: %v", err)
	}

	if wf.Name != "ci" {
		t.Errorf("workflow name = %q, want ci", wf.Name)
	}
	for _, id := range []string{"tier1", "bench-smoke", "trace-smoke", "serve-smoke", "chaos-smoke", "model-smoke", "transit-smoke", "cluster-smoke", "integrity-smoke", "lint"} {
		if wf.Jobs[id] == nil {
			t.Fatalf("ci.yml is missing the %q job", id)
		}
	}

	// The tier1 job must run the actual gate script across the two most
	// recent Go releases (setup-go's evergreen aliases).
	tier1 := wf.Jobs["tier1"]
	if got := wf.RunsContaining("scripts/tier1.sh"); len(got) == 0 || got[0] != "tier1" {
		t.Errorf("jobs running scripts/tier1.sh = %v, want [tier1]", got)
	}
	if got := tier1.Matrix["go"]; !reflect.DeepEqual(got, []string{"stable", "oldstable"}) {
		t.Errorf("tier1 go matrix = %v, want [stable oldstable]", got)
	}
	for _, j := range wf.Jobs {
		var cached bool
		for _, st := range j.Steps {
			if strings.HasPrefix(st.Uses, "actions/setup-go@") && st.With["cache"] != "false" {
				cached = true
			}
		}
		if !cached {
			t.Errorf("job %q does not set up Go with module/build caching", j.ID)
		}
	}

	// The bench-smoke job is blocking and bounded: it vets and tests the
	// benchmark module, which the root module's tests never compile.
	benchSmoke := wf.Jobs["bench-smoke"]
	if benchSmoke.ContinueOnError {
		t.Error("bench-smoke job must be blocking (no continue-on-error)")
	}
	if benchSmoke.TimeoutMinutes <= 0 {
		t.Error("bench-smoke must set timeout-minutes")
	}
	var benchRun bool
	for _, st := range benchSmoke.Steps {
		if strings.Contains(st.Run, "cd bench && go vet ./... && go test ./...") {
			benchRun = true
		}
		if strings.Contains(st.With["path"], "BENCH_") {
			t.Errorf("bench-smoke uploads %q; the BENCH_*.json snapshots are retired", st.With["path"])
		}
	}
	if !benchRun {
		t.Error("bench-smoke job does not run `cd bench && go vet ./... && go test ./...`")
	}

	// The trace-smoke job produces a traced live run, re-validates the
	// Chrome export and the attribution's energy conservation with
	// tracecheck, and uploads the artifacts even on failure.
	var smokeRun, smokeCheck, smokeUpload bool
	for _, st := range wf.Jobs["trace-smoke"].Steps {
		if strings.Contains(st.Run, "cmd/liverun") && strings.Contains(st.Run, "-trace") {
			smokeRun = true
		}
		if strings.Contains(st.Run, "cmd/tracecheck") && strings.Contains(st.Run, "-want-counters") {
			smokeCheck = true
		}
		if strings.HasPrefix(st.Uses, "actions/upload-artifact@") {
			smokeUpload = true
			if st.If != "always()" {
				t.Errorf("trace artifact upload must run on failure too, if = %q", st.If)
			}
		}
	}
	if !smokeRun || !smokeCheck || !smokeUpload {
		t.Errorf("trace-smoke coverage: run=%v check=%v upload=%v",
			smokeRun, smokeCheck, smokeUpload)
	}

	// The serve-smoke job proves the serving subsystem end to end on real
	// binaries: a live run produces a Cinema database, cinemaserve serves
	// it, cinemaload drives a Zipf burst (exiting nonzero on any failure
	// that isn't a deliberate 503 shed), and the scraped /metrics must
	// show nonzero cache hits, latency quantiles, and zero serve errors.
	var servesDB, runsLoad, checksMetrics, checksPool, serveUpload bool
	for _, st := range wf.Jobs["serve-smoke"].Steps {
		if strings.Contains(st.Run, "cmd/liverun") && strings.Contains(st.Run, "-ortho-views") {
			servesDB = true
		}
		if strings.Contains(st.Run, `workpool\.parks [1-9]`) &&
			strings.Contains(st.Run, `workpool\.wakeups [1-9]`) &&
			strings.Contains(st.Run, `workpool\.steals [1-9]`) {
			checksPool = true
			// Small runners may collapse the pool to one shard: the
			// assertions must be gated on the vCPU count, not dropped.
			if !strings.Contains(st.Run, "$(nproc)") {
				t.Error("serve-smoke pool assertions are not nproc-gated")
			}
		}
		if strings.Contains(st.Run, "cmd/cinemaload") && strings.Contains(st.Run, "cmd/cinemaserve") {
			runsLoad = true
		}
		if strings.Contains(st.Run, `serve\.cache\.hits [1-9]`) &&
			strings.Contains(st.Run, `serve\.latency\.ns p99`) &&
			strings.Contains(st.Run, `serve\.errors 0`) {
			checksMetrics = true
		}
		if strings.HasPrefix(st.Uses, "actions/upload-artifact@") {
			serveUpload = true
			if st.If != "always()" {
				t.Errorf("serve-smoke artifact upload must run on failure too, if = %q", st.If)
			}
		}
	}
	if !servesDB || !runsLoad || !checksMetrics || !checksPool || !serveUpload {
		t.Errorf("serve-smoke coverage: db=%v load=%v metrics=%v pool=%v upload=%v",
			servesDB, runsLoad, checksMetrics, checksPool, serveUpload)
	}

	// The chaos-smoke job holds the resilience contracts end to end: two
	// seeded runs complete under injected faults with byte-identical
	// fault logs and degradation counters, every drop/crash/failover/
	// retry is accounted in the exposition, energy conservation survives
	// the degraded timeline, and serving the recovered database leaves
	// the circuit breaker closed.
	var chaosRuns, chaosStable, chaosCounts, chaosPool, chaosEnergy, chaosServe, chaosUpload bool
	for _, st := range wf.Jobs["chaos-smoke"].Steps {
		if strings.Contains(st.Run, "cmd/liverun") && strings.Contains(st.Run, "-chaos seed=") &&
			strings.Contains(st.Run, "-faultlog") {
			chaosRuns = true
		}
		if strings.Contains(st.Run, "cmp faultA.log faultB.log") {
			chaosStable = true
		}
		if strings.Contains(st.Run, `live\.frames\.dropped [1-9]`) &&
			strings.Contains(st.Run, `render\.rank\.crashes [1-9]`) &&
			strings.Contains(st.Run, `render\.failover [1-9]`) &&
			strings.Contains(st.Run, `cinema\.commit\.retries [1-9]`) {
			chaosCounts = true
		}
		if strings.Contains(st.Run, `workpool\.parks [1-9]`) &&
			strings.Contains(st.Run, `workpool\.wakeups [1-9]`) &&
			strings.Contains(st.Run, `workpool\.steals [1-9]`) {
			chaosPool = true
			if !strings.Contains(st.Run, "$(nproc)") {
				t.Error("chaos-smoke pool assertions are not nproc-gated")
			}
		}
		if strings.Contains(st.Run, "cmd/tracecheck") {
			chaosEnergy = true
		}
		if strings.Contains(st.Run, "-repair") &&
			strings.Contains(st.Run, `serve\.breaker\.run\.state 0`) {
			chaosServe = true
		}
		if strings.HasPrefix(st.Uses, "actions/upload-artifact@") {
			chaosUpload = true
			if st.If != "always()" {
				t.Errorf("chaos artifact upload must run on failure too, if = %q", st.If)
			}
		}
	}
	if !chaosRuns || !chaosStable || !chaosCounts || !chaosPool || !chaosEnergy || !chaosServe || !chaosUpload {
		t.Errorf("chaos-smoke coverage: runs=%v stable=%v counts=%v pool=%v energy=%v serve=%v upload=%v",
			chaosRuns, chaosStable, chaosCounts, chaosPool, chaosEnergy, chaosServe, chaosUpload)
	}

	// The model-smoke job holds the observability contracts end to end:
	// two same-seed chaos runs with the online model produce byte-identical
	// anomaly logs and snapshots, the injected live.io stall surfaces in
	// both the log and the model.anomalies.io counter, the fitted alpha's
	// confidence interval brackets the paper's reference value, and the
	// online estimator replays the offline campaign to 1e-9.
	var modelRuns, modelStable, modelAnomaly, modelVerdict, modelReplay, modelUpload bool
	for _, st := range wf.Jobs["model-smoke"].Steps {
		if strings.Contains(st.Run, "cmd/liverun") && strings.Contains(st.Run, "-chaos seed=") &&
			strings.Contains(st.Run, "-model-log") && strings.Contains(st.Run, "-model-out") {
			modelRuns = true
		}
		if strings.Contains(st.Run, "cmp modelA.log modelB.log") &&
			strings.Contains(st.Run, "cmp modelA.json modelB.json") {
			modelStable = true
		}
		if strings.Contains(st.Run, `model\.anomalies\.io [1-9]`) &&
			strings.Contains(st.Run, "model anomaly #") {
			modelAnomaly = true
		}
		if strings.Contains(st.Run, "model alpha contains-reference yes") {
			modelVerdict = true
		}
		if strings.Contains(st.Run, "cmd/modelfit") && strings.Contains(st.Run, "-online") &&
			strings.Contains(st.Run, "online matches offline to 1e-9: yes") {
			modelReplay = true
		}
		if strings.HasPrefix(st.Uses, "actions/upload-artifact@") {
			modelUpload = true
			if st.If != "always()" {
				t.Errorf("model artifact upload must run on failure too, if = %q", st.If)
			}
		}
	}
	if !modelRuns || !modelStable || !modelAnomaly || !modelVerdict || !modelReplay || !modelUpload {
		t.Errorf("model-smoke coverage: runs=%v stable=%v anomaly=%v verdict=%v replay=%v upload=%v",
			modelRuns, modelStable, modelAnomaly, modelVerdict, modelReplay, modelUpload)
	}

	// The transit-smoke job is the distributed sim->viz drill on real
	// binaries and real sockets: a reference in-process run, the same
	// run streamed to two viz workers under the transit chaos profile
	// with one worker SIGKILLed and restarted mid-run, a byte-exact tree
	// diff between the two committed stores, reconnect/compression
	// telemetry gates, and energy conservation on the in-transit
	// timeline. It carries a timeout so a wedged handshake cannot hang
	// the pipeline.
	transitJob := wf.Jobs["transit-smoke"]
	if transitJob.TimeoutMinutes <= 0 {
		t.Error("transit-smoke must set timeout-minutes")
	}
	var transitRef, transitWorkers, transitKill, transitDiff, transitCounts, transitRatio, transitEnergy, transitUpload bool
	for _, st := range transitJob.Steps {
		if strings.Contains(st.Run, "liverun-bin") && strings.Contains(st.Run, "-eddy-cores") &&
			!strings.Contains(st.Run, "-transport") {
			transitRef = true
		}
		if strings.Contains(st.Run, "vizworker-bin") && strings.Contains(st.Run, "worker1.pid") {
			transitWorkers = true
		}
		if strings.Contains(st.Run, "-transport tcp") && strings.Contains(st.Run, "-viz-workers") &&
			strings.Contains(st.Run, "-chaos seed=") && strings.Contains(st.Run, ",transit") &&
			strings.Contains(st.Run, "kill -9") {
			transitKill = true
		}
		if strings.Contains(st.Run, "diff -r inproc-out/cinema tcp-out/cinema") {
			transitDiff = true
		}
		if strings.Contains(st.Run, `transit\.reconnects [1-9]`) &&
			strings.Contains(st.Run, `transit\.bytes\.raw [1-9]`) &&
			strings.Contains(st.Run, `transit\.bytes\.wire [1-9]`) &&
			strings.Contains(st.Run, `live\.samples\.dropped 0`) {
			transitCounts = true
		}
		if strings.Contains(st.Run, "transit.compression.ratio") &&
			strings.Contains(st.Run, "0.7") {
			transitRatio = true
		}
		if strings.Contains(st.Run, "cmd/tracecheck") {
			transitEnergy = true
		}
		if strings.HasPrefix(st.Uses, "actions/upload-artifact@") {
			transitUpload = true
			if st.If != "always()" {
				t.Errorf("transit artifact upload must run on failure too, if = %q", st.If)
			}
		}
	}
	if !transitRef || !transitWorkers || !transitKill || !transitDiff || !transitCounts || !transitRatio || !transitEnergy || !transitUpload {
		t.Errorf("transit-smoke coverage: ref=%v workers=%v kill=%v diff=%v counts=%v ratio=%v energy=%v upload=%v",
			transitRef, transitWorkers, transitKill, transitDiff, transitCounts, transitRatio, transitEnergy, transitUpload)
	}

	// The cluster-smoke job is the kill-a-node drill: a 3-node fleet plus
	// gateway, a parsed-request cache-key and 400 check while the fleet is
	// whole, a mid-burst SIGKILL, byte-identical frames after failover,
	// a rebalance check across the survivors, and a direct multi-target
	// balance gate. It depends on serve-smoke and carries a timeout so a
	// wedged fleet cannot hang the pipeline.
	clusterJob := wf.Jobs["cluster-smoke"]
	if !reflect.DeepEqual(clusterJob.Needs, []string{"serve-smoke"}) {
		t.Errorf("cluster-smoke needs = %v, want [serve-smoke]", clusterJob.Needs)
	}
	if clusterJob.TimeoutMinutes <= 0 {
		t.Error("cluster-smoke must set timeout-minutes")
	}
	var clusterFleet, clusterQuery, clusterKill, clusterCmp, clusterRebalance, clusterAsserts, clusterBalance, clusterUpload bool
	for _, st := range clusterJob.Steps {
		// Before any failure: two spellings of one point are one gateway
		// cache miss, and a malformed query is a 400 that costs no
		// failover.
		if strings.Contains(st.Run, "time=$T&") && strings.Contains(st.Run, "time=$T.0&") &&
			strings.Contains(st.Run, "nearest=maybe") && strings.Contains(st.Run, `"$code" = 400`) &&
			strings.Contains(st.Run, "cluster.cache.misses") && strings.Contains(st.Run, "misses_before + 1") &&
			strings.Contains(st.Run, `cluster\.failover 0$`) {
			clusterQuery = true
		}
		if strings.Contains(st.Run, "-cluster") && strings.Contains(st.Run, "-peers") &&
			strings.Contains(st.Run, "-replicas") {
			clusterFleet = true
		}
		if strings.Contains(st.Run, "kill -9") && strings.Contains(st.Run, "cinemaload") {
			clusterKill = true
		}
		if strings.Contains(st.Run, "cmp ") && strings.Contains(st.Run, "before/") &&
			strings.Contains(st.Run, "after/") {
			clusterCmp = true
		}
		if strings.Contains(st.Run, "cluster.node.node0.ok") &&
			strings.Contains(st.Run, "cluster.node.node2.ok") {
			clusterRebalance = true
		}
		if strings.Contains(st.Run, `cluster\.failover [1-9]`) &&
			strings.Contains(st.Run, `cluster\.errors 0`) &&
			strings.Contains(st.Run, `cluster\.node\.node1\.up 0`) {
			clusterAsserts = true
		}
		if strings.Contains(st.Run, "-targets") && strings.Contains(st.Run, "-balance-fail") {
			clusterBalance = true
		}
		if strings.HasPrefix(st.Uses, "actions/upload-artifact@") {
			clusterUpload = true
			if st.If != "always()" {
				t.Errorf("cluster artifact upload must run on failure too, if = %q", st.If)
			}
		}
	}
	if !clusterFleet || !clusterQuery || !clusterKill || !clusterCmp || !clusterRebalance || !clusterAsserts || !clusterBalance || !clusterUpload {
		t.Errorf("cluster-smoke coverage: fleet=%v query=%v kill=%v cmp=%v rebalance=%v asserts=%v balance=%v upload=%v",
			clusterFleet, clusterQuery, clusterKill, clusterCmp, clusterRebalance, clusterAsserts, clusterBalance, clusterUpload)
	}

	// The integrity-smoke job is the bit-rot drill: independent replicas
	// behind a repairing gateway, a deliberate mid-file bit flip,
	// cinemaverify naming the rotten frame with a nonzero exit, failover
	// that never shows the client an error, an in-place replica repair
	// proven by byte comparison, and a final clean verify. It depends on
	// serve-smoke and carries a timeout.
	integrityJob := wf.Jobs["integrity-smoke"]
	if !reflect.DeepEqual(integrityJob.Needs, []string{"serve-smoke"}) {
		t.Errorf("integrity-smoke needs = %v, want [serve-smoke]", integrityJob.Needs)
	}
	if integrityJob.TimeoutMinutes <= 0 {
		t.Error("integrity-smoke must set timeout-minutes")
	}
	var integVerify, integFleet, integFlip, integNames, integFailover, integLoad, integAsserts, integReverify, integUpload bool
	for _, st := range integrityJob.Steps {
		if strings.Contains(st.Run, "cinemaverify-bin integrity-smoke-out/cinema") {
			integVerify = true
		}
		if strings.Contains(st.Run, "-repair-dir") && strings.Contains(st.Run, "-scrub 1s") &&
			strings.Contains(st.Run, "-replicas") {
			integFleet = true
		}
		if strings.Contains(st.Run, "python3 -c") && strings.Contains(st.Run, "0x80") {
			integFlip = true
		}
		if strings.Contains(st.Run, "cinemaverify passed a rotten store") &&
			strings.Contains(st.Run, `grep -F "$F" verify-rotten.txt`) {
			integNames = true
		}
		if strings.Contains(st.Run, "cmp before.png after.png") &&
			strings.Contains(st.Run, `[ "$SERVER" != "$VICTIM" ]`) &&
			strings.Contains(st.Run, `cmp before.png "replica$IDX/$F"`) {
			integFailover = true
		}
		if strings.Contains(st.Run, "cinemaload-bin") {
			integLoad = true
		}
		if strings.Contains(st.Run, `cluster\.corrupt [1-9]`) &&
			strings.Contains(st.Run, `cluster\.repairs [1-9]`) &&
			strings.Contains(st.Run, `cluster\.errors 0`) &&
			strings.Contains(st.Run, `serve\.corrupt [1-9]`) &&
			strings.Contains(st.Run, `serve\.quarantined 0`) {
			integAsserts = true
		}
		if strings.Contains(st.Run, `cinemaverify-bin "replica$IDX"`) &&
			!strings.Contains(st.Run, "verify-rotten") {
			integReverify = true
		}
		if strings.HasPrefix(st.Uses, "actions/upload-artifact@") {
			integUpload = true
			if st.If != "always()" {
				t.Errorf("integrity artifact upload must run on failure too, if = %q", st.If)
			}
		}
	}
	if !integVerify || !integFleet || !integFlip || !integNames || !integFailover || !integLoad || !integAsserts || !integReverify || !integUpload {
		t.Errorf("integrity-smoke coverage: verify=%v fleet=%v flip=%v names=%v failover=%v load=%v asserts=%v reverify=%v upload=%v",
			integVerify, integFleet, integFlip, integNames, integFailover, integLoad, integAsserts, integReverify, integUpload)
	}

	// The lint job covers gofmt and go vet.
	var gofmtStep, vetStep bool
	for _, st := range wf.Jobs["lint"].Steps {
		if strings.Contains(st.Run, "gofmt -l") {
			gofmtStep = true
		}
		if strings.Contains(st.Run, "go vet") {
			vetStep = true
		}
	}
	if !gofmtStep || !vetStep {
		t.Errorf("lint job gofmt/vet coverage: gofmt=%v vet=%v", gofmtStep, vetStep)
	}
}
