package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"cloudmap"
	"cloudmap/internal/geo"
	"cloudmap/internal/netblock"
	"cloudmap/internal/pinning"
	"cloudmap/internal/registry"
	"cloudmap/internal/verify"
)

// TestMain runs the tests from the repository root, where the benchmark
// itself runs: the plans and BENCHMARK.json are read from there.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(m.Run())
}

// accuracyMetrics are the keys accuracy scores.
var accuracyMetrics = []string{"cbi_precision", "peer_as_recall", "owner_accuracy", "vpi.recall", "pin_accuracy", "pin_coverage"}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// checkDefs rejects a metric list with a malformed or repeated name or a
// malformed unit.
func checkDefs(defs []metricDef) error {
	seen := map[string]bool{}
	for _, d := range defs {
		if !nameRE.MatchString(d.name) {
			return fmt.Errorf("metric name %q is malformed", d.name)
		}
		if !unitRE.MatchString(d.unit) {
			return fmt.Errorf("metric %s: unit %q is malformed", d.name, d.unit)
		}
		if seen[d.name] {
			return fmt.Errorf("metric %s is listed twice", d.name)
		}
		seen[d.name] = true
	}
	return nil
}

func fakeResult(cbis map[netblock.IP]registry.ASN, pins map[netblock.IP]geo.MetroID) *cloudmap.Result {
	ver := &verify.Result{CBIs: map[netblock.IP]registry.Annotation{}, OwnerASN: map[netblock.IP]registry.ASN{}}
	for ip, asn := range cbis {
		ver.CBIs[ip] = registry.Annotation{}
		ver.OwnerASN[ip] = asn
	}
	return &cloudmap.Result{Verified: ver, Pinning: &pinning.Result{Metro: pins}}
}

func TestDigestDetectsChangedCBISet(t *testing.T) {
	pins := map[netblock.IP]geo.MetroID{10: 3, 20: 4}
	summary := map[string]float64{"cbis": 2, "hidden_share": 0.25}
	base := digest(fakeResult(map[netblock.IP]registry.ASN{1: 100, 2: 200}, pins), summary)
	if again := digest(fakeResult(map[netblock.IP]registry.ASN{2: 200, 1: 100}, pins), summary); again != base {
		t.Fatalf("digest depends on map order: %s vs %s", again, base)
	}
	changed := map[string]string{
		"CBI added":     digest(fakeResult(map[netblock.IP]registry.ASN{1: 100, 2: 200, 3: 300}, pins), summary),
		"CBI removed":   digest(fakeResult(map[netblock.IP]registry.ASN{1: 100}, pins), summary),
		"CBI replaced":  digest(fakeResult(map[netblock.IP]registry.ASN{1: 100, 4: 200}, pins), summary),
		"owner changed": digest(fakeResult(map[netblock.IP]registry.ASN{1: 100, 2: 201}, pins), summary),
		"pin moved":     digest(fakeResult(map[netblock.IP]registry.ASN{1: 100, 2: 200}, map[netblock.IP]geo.MetroID{10: 3, 20: 5}), summary),
		"summary moved": digest(fakeResult(map[netblock.IP]registry.ASN{1: 100, 2: 200}, pins), map[string]float64{"cbis": 2, "hidden_share": 0.26}),
	}
	for what, d := range changed {
		if d == base {
			t.Errorf("%s: digest unchanged", what)
		}
	}
}

// TestMetricNamesValid checks the metric lists against the naming rules and
// against BENCHMARK.json, so the file and the program cannot drift apart.
func TestMetricNamesValid(t *testing.T) {
	if err := checkDefs(endToEnd); err != nil {
		t.Fatal(err)
	}
	if err := checkDefs(perLayer()); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	flat := func(defs []metricDef) []string {
		var out []string
		for _, d := range defs {
			out = append(out, d.name+" "+d.unit)
		}
		sort.Strings(out)
		return out
	}
	flatSpec := func(defs []struct{ Name, Unit string }) []string {
		var out []string
		for _, d := range defs {
			out = append(out, d.Name+" "+d.Unit)
		}
		sort.Strings(out)
		return out
	}
	if got, want := flat(endToEnd), flatSpec(spec.EndToEnd); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("end-to-end metrics %v, BENCHMARK.json lists %v", got, want)
	}
	if got, want := flat(perLayer()), flatSpec(spec.PerLayer); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("per-layer metrics %v, BENCHMARK.json lists %v", got, want)
	}
}

// TestBadInputsFailFast: a malformed seed or an unknown workload or flag
// exits with code 2 before any work, and prints no result. The plans are
// part of the workloads, so a plan flag is an unknown flag.
func TestBadInputsFailFast(t *testing.T) {
	cases := map[string][]string{
		"negative seed": {"--workload", "fresh", "--seed", "-1"},
		"non-num seed":  {"--workload", "fresh", "--seed", "abc"},
		"unknown flag":  {"--workload", "fresh", "--sede", "1"},
		"plan flag":     {"--workload", "chaos", "--fault-plan", faultPlanPath},
		"zero seconds":  {"--workload", "fresh", "--seconds", "0"},
		"trace 2":       {"--workload", "fresh", "--trace", "2"},
		"workload":      {"--workload", "batch"},
	}
	for name, args := range cases {
		var out, errOut bytes.Buffer
		start := time.Now()
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("%s: exit code %d, want 2 (stderr %q)", name, code, errOut.String())
		}
		if d := time.Since(start); d > time.Second {
			t.Errorf("%s: took %v to fail", name, d)
		}
		if out.Len() != 0 {
			t.Errorf("%s: printed %q", name, out.String())
		}
	}
}

// TestBadPlanPathsFail: a missing or wrong-kind plan fails loadPlans, which
// run calls before any work.
func TestBadPlanPathsFail(t *testing.T) {
	if _, err := loadPlans(faultPlanPath, dirtyPlanPath, churnPlanPath); err != nil {
		t.Fatalf("checked-in plans: %v", err)
	}
	cases := map[string][3]string{
		"fault plan missing": {"testdata/faultplans/missing.json", dirtyPlanPath, churnPlanPath},
		"dirty plan wrong":   {faultPlanPath, faultPlanPath, churnPlanPath},
		"churn plan missing": {faultPlanPath, dirtyPlanPath, "missing.json"},
	}
	for name, paths := range cases {
		if _, err := loadPlans(paths[0], paths[1], paths[2]); err == nil {
			t.Errorf("%s: loadPlans succeeded", name)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median = %v, want 2", m)
	}
}

// TestOverheadPairs: the pairs alternate which side runs first, the ratio
// is observed over plain, and an observed op with another digest is a
// failure.
func TestOverheadPairs(t *testing.T) {
	var order strings.Builder
	op := func(side string, wall time.Duration, d string) timedOp {
		return func() (time.Duration, string, error) {
			order.WriteString(side)
			return wall, d, nil
		}
	}
	var failures []string
	fail := func(format string, a ...any) { failures = append(failures, fmt.Sprintf(format, a...)) }
	ratio, n, err := overheadPairs(op("p", 100*time.Millisecond, "x"), op("o", 200*time.Millisecond, "x"), fail)
	if err != nil || n != 2*obsPairs || ratio != 2 || len(failures) != 0 {
		t.Fatalf("ratio %v, %d ops, err %v, failures %q", ratio, n, err, failures)
	}
	if want := strings.Repeat("poop", obsPairs)[:2*obsPairs]; order.String() != want {
		t.Fatalf("order %q, want %q", order.String(), want)
	}
	if _, _, err := overheadPairs(op("p", time.Millisecond, "x"), op("o", time.Millisecond, "y"), fail); err != nil {
		t.Fatal(err)
	}
	if len(failures) != obsPairs {
		t.Fatalf("%d failures for %d mismatched pairs: %q", len(failures), obsPairs, failures)
	}
}

// TestFreshOpMatchesIndependentRun: the fresh op's output equals a
// Workers=1 reference, and its accuracy equals evaluate's score of an
// independent RunPipeline of the same seed.
func TestFreshOpMatchesIndependentRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the pipeline three times")
	}
	p, err := loadPlans(faultPlanPath, dirtyPlanPath, churnPlanPath)
	if err != nil {
		t.Fatal(err)
	}
	w, err := newWorkload("fresh", 3, 2, p, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	r, err := w.op(ctx)
	if err != nil {
		t.Fatal(err)
	}
	refs, _, err := w.reference(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.digest != refs[0] {
		t.Fatalf("op digest %s, Workers=1 reference %s", r.digest, refs[0])
	}
	cfg := cloudmap.SmallConfig()
	cfg.Topology.Seed = 3
	res, _, err := cloudmap.RunPipeline(ctx, nil, cfg, cloudmap.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, want := accuracy(r.res), accuracy(res)
	for _, k := range accuracyMetrics {
		if got[k] != want[k] {
			t.Errorf("%s: benchmark op %v, independent run %v", k, got[k], want[k])
		}
	}
}

// TestRunPrintsContractLine runs a one-second (five-op) fresh benchmark end to end
// and checks the last output line: exactly the four keys, every end-to-end
// metric, no failed op.
func TestRunPrintsContractLine(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the pipeline six times")
	}
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "fresh", "--seed", "2", "--seconds", "1"}, &out, &errOut); code != 0 {
		t.Fatalf("exit code %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range raw {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if strings.Join(keys, ",") != "attempted,correct,failed,metrics" {
		t.Fatalf("result keys %v", keys)
	}
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatal(err)
	}
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Fatalf("result %+v\n%s", r, out.String())
	}
	for _, d := range endToEnd {
		m, ok := r.Metrics[d.name]
		if !ok || m.Unit != d.unit || m.Value <= 0 {
			t.Errorf("metric %s = %+v (present %v)", d.name, m, ok)
		}
	}
	if !strings.Contains(out.String(), "stamp {") {
		t.Errorf("no stamp line in %q", out.String())
	}
}
