package pipeline

import (
	"context"
	"errors"
	"strings"
	"testing"
)

// A panicking stage must become a failed StageResult carrying the panic
// value, with every downstream stage recorded not-run — the process (and
// the epoch loop driving it) survives.
func TestStagePanicBecomesFailedResult(t *testing.T) {
	r := New[state](nil)
	r.Add(appendStage("a"))
	r.Add(Stage[state]{Name: "b", Needs: []string{"a"}, Run: func(context.Context, *state, *StageContext) error {
		panic("boom")
	}})
	r.Add(appendStage("c", "b"))

	var s state
	results, err := r.Run(context.Background(), &s, Options{})
	if err == nil {
		t.Fatal("panicking stage returned nil error")
	}
	var pe *StagePanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error = %v, want wrapped *StagePanicError", err)
	}
	if pe.Stage != "b" || pe.Value != "boom" || len(pe.Stack) == 0 {
		t.Fatalf("panic error = %+v", pe)
	}
	if len(results) != 3 {
		t.Fatalf("want one result per stage, got %d", len(results))
	}
	if results[0].Status != StatusOK {
		t.Fatalf("upstream stage = %+v", results[0])
	}
	if results[1].Status != StatusFailed || !strings.Contains(results[1].Error, "panic: boom") {
		t.Fatalf("panicking stage result = %+v", results[1])
	}
	if results[2].Status != StatusNotRun {
		t.Fatalf("downstream stage result = %+v", results[2])
	}
	if got := strings.Join(s.log, ","); got != "a" {
		t.Fatalf("executed stages = %s, want just a", got)
	}
}

// A panic inside a Resume hook is contained the same way.
func TestResumeHookPanicBecomesFailedResult(t *testing.T) {
	r := New[state](nil)
	r.Add(Stage[state]{
		Name:   "a",
		Resume: func(context.Context, *state, *StageContext) (bool, error) { panic(errors.New("torn")) },
		Run: func(_ context.Context, s *state, _ *StageContext) error {
			s.log = append(s.log, "a(ran)")
			return nil
		},
	})

	var s state
	results, err := r.Run(context.Background(), &s, Options{})
	var pe *StagePanicError
	if !errors.As(err, &pe) || pe.Stage != "a" {
		t.Fatalf("error = %v, want *StagePanicError for a", err)
	}
	if results[0].Status != StatusFailed {
		t.Fatalf("result = %+v", results[0])
	}
	if len(s.log) != 0 {
		t.Fatalf("Run executed after panicking Resume: %v", s.log)
	}
}

// Mirror of the mid-DAG-failure contract for panics: a run interrupted by
// a panicking stage leaves the upstream checkpoints intact, and a second
// run resumes them instead of recomputing — the crashed stage re-runs.
func TestPanickedRunStaysResumable(t *testing.T) {
	checkpointed := false // "a"'s durable output, surviving the first run
	mk := func(bPanics bool) *Runner[state] {
		r := New[state](nil)
		r.Add(Stage[state]{
			Name: "a",
			Resume: func(_ context.Context, s *state, _ *StageContext) (bool, error) {
				if !checkpointed {
					return false, nil
				}
				s.log = append(s.log, "a(resumed)")
				return true, nil
			},
			Run: func(_ context.Context, s *state, _ *StageContext) error {
				s.log = append(s.log, "a(ran)")
				checkpointed = true
				return nil
			},
		})
		r.Add(Stage[state]{Name: "b", Needs: []string{"a"}, Run: func(_ context.Context, s *state, _ *StageContext) error {
			if bPanics {
				panic("mid-DAG")
			}
			s.log = append(s.log, "b(ran)")
			return nil
		}})
		return r
	}

	var s state
	results, err := mk(true).Run(context.Background(), &s, Options{})
	var pe *StagePanicError
	if !errors.As(err, &pe) {
		t.Fatalf("first run error = %v", err)
	}
	if results[0].Status != StatusOK || results[1].Status != StatusFailed {
		t.Fatalf("first run results = %+v", results)
	}

	s = state{}
	results, err = mk(false).Run(context.Background(), &s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Status != StatusResumed || results[1].Status != StatusOK {
		t.Fatalf("second run results = %+v", results)
	}
	if got := strings.Join(s.log, ","); got != "a(resumed),b(ran)" {
		t.Fatalf("second run executed %s", got)
	}
}
