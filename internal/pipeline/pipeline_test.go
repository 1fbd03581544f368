package pipeline

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
)

type state struct {
	log []string
}

func appendStage(name string, needs ...string) Stage[state] {
	return Stage[state]{
		Name:  name,
		Needs: needs,
		Run: func(_ context.Context, s *state, _ *StageContext) error {
			s.log = append(s.log, name)
			return nil
		},
	}
}

func TestOrderRespectsNeedsAndInsertion(t *testing.T) {
	r := New[state](nil)
	// Insertion order c, a, b — but c needs b needs a.
	r.Add(Stage[state]{Name: "c", Needs: []string{"b"}, Run: appendStage("c").Run})
	r.Add(appendStage("a"))
	r.Add(Stage[state]{Name: "b", Needs: []string{"a"}, Run: appendStage("b").Run})
	order, err := r.Order()
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, ","); got != "a,b,c" {
		t.Fatalf("order = %s", got)
	}

	var s state
	results, err := r.Run(context.Background(), &s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(s.log, ","); got != "a,b,c" {
		t.Fatalf("execution order = %s", got)
	}
	if len(results) != 3 || results[0].Name != "a" || results[0].Status != StatusOK {
		t.Fatalf("results = %+v", results)
	}
}

func TestOrderErrors(t *testing.T) {
	r := New[state](nil)
	r.Add(Stage[state]{Name: "a", Needs: []string{"ghost"}, Run: appendStage("a").Run})
	if _, err := r.Order(); err == nil || !strings.Contains(err.Error(), "ghost") {
		t.Fatalf("unknown dep not reported: %v", err)
	}

	cyc := New[state](nil)
	cyc.Add(Stage[state]{Name: "a", Needs: []string{"b"}, Run: appendStage("a").Run})
	cyc.Add(Stage[state]{Name: "b", Needs: []string{"a"}, Run: appendStage("b").Run})
	if _, err := cyc.Order(); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("cycle not reported: %v", err)
	}

	self := New[state](nil)
	self.Add(Stage[state]{Name: "a", Needs: []string{"a"}, Run: appendStage("a").Run})
	if _, err := self.Order(); err == nil {
		t.Fatal("self-dependency not reported")
	}
}

func TestAddPanics(t *testing.T) {
	for name, st := range map[string]Stage[state]{
		"empty name": {Run: appendStage("x").Run},
		"nil run":    {Name: "x"},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			New[state](nil).Add(st)
		}()
	}
	// Duplicate names panic too.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("duplicate name: no panic")
			}
		}()
		New[state](nil).Add(appendStage("x")).Add(appendStage("x"))
	}()
}

func TestSkipAndDependentsStillRun(t *testing.T) {
	r := New[state](nil)
	r.Add(appendStage("a"))
	sk := appendStage("b", "a")
	sk.Skip = func(*state) bool { return true }
	r.Add(sk)
	r.Add(appendStage("c", "b"))

	var s state
	results, err := r.Run(context.Background(), &s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(s.log, ","); got != "a,c" {
		t.Fatalf("execution = %s", got)
	}
	if results[1].Status != StatusSkipped || results[2].Status != StatusOK {
		t.Fatalf("results = %+v", results)
	}
}

func TestResumeHook(t *testing.T) {
	mk := func(resumable bool) Stage[state] {
		return Stage[state]{
			Name: "a",
			Resume: func(_ context.Context, s *state, _ *StageContext) (bool, error) {
				if resumable {
					s.log = append(s.log, "a(resumed)")
				}
				return resumable, nil
			},
			Run: func(_ context.Context, s *state, _ *StageContext) error {
				s.log = append(s.log, "a(ran)")
				return nil
			},
		}
	}

	var s state
	results, err := New[state](nil).Add(mk(true)).Run(context.Background(), &s, Options{})
	if err != nil || results[0].Status != StatusResumed || s.log[0] != "a(resumed)" {
		t.Fatalf("resumed run: %v %+v %v", err, results, s.log)
	}

	// Resume returning false falls through to Run.
	s = state{}
	results, err = New[state](nil).Add(mk(false)).Run(context.Background(), &s, Options{})
	if err != nil || results[0].Status != StatusOK || s.log[0] != "a(ran)" {
		t.Fatalf("fallthrough run: %v %+v %v", err, results, s.log)
	}
}

func TestFailureMarksRemainingNotRun(t *testing.T) {
	boom := errors.New("boom")
	r := New[state](nil)
	r.Add(appendStage("a"))
	r.Add(Stage[state]{Name: "b", Needs: []string{"a"}, Run: func(context.Context, *state, *StageContext) error { return boom }})
	r.Add(appendStage("c", "b"))

	var s state
	results, err := r.Run(context.Background(), &s, Options{})
	if !errors.Is(err, boom) {
		t.Fatalf("error = %v, want wrapped boom", err)
	}
	if len(results) != 3 {
		t.Fatalf("want one result per stage, got %d", len(results))
	}
	if results[1].Status != StatusFailed || results[1].Error == "" {
		t.Fatalf("failed stage result = %+v", results[1])
	}
	if results[2].Status != StatusNotRun {
		t.Fatalf("dependent stage result = %+v", results[2])
	}
}

func TestCancellationBetweenStages(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	r := New[state](nil)
	r.Add(Stage[state]{Name: "a", Run: func(context.Context, *state, *StageContext) error {
		cancel()
		return nil
	}})
	r.Add(appendStage("b", "a"))

	var s state
	results, err := r.Run(ctx, &s, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	if results[0].Status != StatusOK || results[1].Status != StatusNotRun {
		t.Fatalf("results = %+v", results)
	}
	if len(s.log) != 0 {
		t.Fatalf("stage b ran after cancellation: %v", s.log)
	}
}

func TestStageMetricsScoping(t *testing.T) {
	r := New[state](nil)
	r.Add(Stage[state]{Name: "probe", Run: func(_ context.Context, _ *state, sc *StageContext) error {
		c := sc.Counter("traces")
		for i := 0; i < 5; i++ {
			c.Inc()
		}
		sc.Gauge("share").Set(0.5)
		sc.Histogram("hops").Observe(7)
		return nil
	}})
	r.Add(Stage[state]{Name: "other", Needs: []string{"probe"}, Run: func(_ context.Context, _ *state, sc *StageContext) error {
		sc.Counter("traces").Inc()
		return nil
	}})

	var s state
	results, err := r.Run(context.Background(), &s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	probe := results[0]
	if probe.Counters["traces"] != 5 || probe.Gauges["share"] != 0.5 || probe.Histograms["hops"].Count != 1 {
		t.Fatalf("probe stage result = %+v", probe)
	}
	if results[1].Counters["traces"] != 1 {
		t.Fatalf("other stage result = %+v", results[1])
	}
	if probe.Wall < 0 || probe.Goroutines <= 0 {
		t.Fatalf("telemetry fields unset: %+v", probe)
	}
	// Registry keeps the prefixed names.
	if got := r.Metrics().Counter("probe.traces").Value(); got != 5 {
		t.Fatalf("registry counter = %d", got)
	}
}

func TestLargeDiamondOrder(t *testing.T) {
	// fan-out -> fan-in keeps deterministic insertion-order ties.
	r := New[state](nil)
	r.Add(appendStage("src"))
	for i := 0; i < 5; i++ {
		r.Add(appendStage(fmt.Sprintf("mid%d", i), "src"))
	}
	r.Add(appendStage("sink", "mid0", "mid1", "mid2", "mid3", "mid4"))
	order, err := r.Order()
	if err != nil {
		t.Fatal(err)
	}
	want := "src,mid0,mid1,mid2,mid3,mid4,sink"
	if got := strings.Join(order, ","); got != want {
		t.Fatalf("order = %s, want %s", got, want)
	}
}

func TestInputHashSkip(t *testing.T) {
	// A two-stage chain where each stage declares an input hash drawn from
	// the state: matching Prev results hash-skip, changed ones run.
	hashes := map[string]string{"a": "h1", "b": "h2"}
	r := New[state](nil)
	for _, name := range []string{"a", "b"} {
		name := name
		st := appendStage(name)
		if name == "b" {
			st.Needs = []string{"a"}
		}
		st.InputHash = func(_ *state) string { return hashes[name] }
		r.Add(st)
	}

	// First run: no previous hashes — everything executes, results carry
	// the computed input hashes.
	var s state
	results, err := r.Run(context.Background(), &s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	prev := results
	for _, sr := range results {
		if sr.Status != StatusOK {
			t.Fatalf("%s status = %s", sr.Name, sr.Status)
		}
		if sr.InputHash == "" {
			t.Fatalf("%s missing input hash", sr.Name)
		}
	}

	// Second run with unchanged hashes: both stages hash-skip and Run
	// hooks never fire.
	s = state{}
	results, err = r.Run(context.Background(), &s, Options{Prev: prev})
	if err != nil {
		t.Fatal(err)
	}
	for _, sr := range results {
		if sr.Status != StatusSkippedUnchanged {
			t.Fatalf("%s status = %s, want %s", sr.Name, sr.Status, StatusSkippedUnchanged)
		}
	}
	if len(s.log) != 0 {
		t.Fatalf("skipped stages ran: %v", s.log)
	}

	// Third run with only b's hash changed: a skips, b runs.
	hashes["b"] = "h2-changed"
	s = state{}
	results, err = r.Run(context.Background(), &s, Options{Prev: prev})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Status != StatusSkippedUnchanged || results[1].Status != StatusOK {
		t.Fatalf("statuses = %s, %s", results[0].Status, results[1].Status)
	}
	if strings.Join(s.log, ",") != "b" {
		t.Fatalf("executed = %v, want just b", s.log)
	}

	// A degraded stage that hash-skips keeps its degradation, so a stage
	// that cannot tolerate partial inputs stays skipped-degraded; a stage
	// whose previous result has no input hash never hash-skips.
	d := New[state](nil)
	d.Add(Stage[state]{
		Name:            "probe",
		ToleratePartial: true,
		InputHash:       func(*state) string { return "hp" },
		Run: func(_ context.Context, s *state, sc *StageContext) error {
			s.log = append(s.log, "probe")
			sc.Degrade("lost 10% of probes")
			return nil
		},
	})
	strict := appendStage("strict", "probe")
	strict.InputHash = func(*state) string { return "hs" }
	d.Add(strict)
	unhashed := appendStage("unhashed", "probe")
	unhashed.ToleratePartial = true
	unhashed.InputHash = func(*state) string { return "" }
	d.Add(unhashed)
	s = state{}
	first, err := d.Run(context.Background(), &s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s = state{}
	second, err := d.Run(context.Background(), &s, Options{Prev: first})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(s.log, ",") != "unhashed" {
		t.Fatalf("executed = %v, want just unhashed", s.log)
	}
	for i, want := range []Status{StatusSkippedUnchanged, StatusSkippedDegraded, StatusOK} {
		if second[i].Status != want {
			t.Fatalf("%s status = %s, want %s", second[i].Name, second[i].Status, want)
		}
	}
	if p := second[0]; !p.Degraded || strings.Join(p.Notes, ",") != "lost 10% of probes" {
		t.Fatalf("hash-skipped probe = %+v, want epoch 1's degradation", p)
	}
	if n := second[1].Notes; len(n) != 1 || n[0] != "probe: lost 10% of probes" {
		t.Fatalf("strict notes = %v (must name the degrading stage)", n)
	}
}
