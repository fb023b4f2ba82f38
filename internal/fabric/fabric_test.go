package fabric

import (
	"testing"

	"manimal/internal/optimizer"
	"manimal/internal/predicate"
	"manimal/internal/serde"
)

func TestInputForPlanUnknownKind(t *testing.T) {
	if _, err := InputForPlan(&optimizer.Plan{Kind: optimizer.PlanKind(99)}, nil); err == nil {
		t.Fatal("unknown plan kind accepted")
	}
}

func TestInputForPlanMissingFiles(t *testing.T) {
	if _, err := InputForPlan(&optimizer.Plan{Kind: optimizer.PlanOriginal, InputPath: "/nonexistent.rec"}, nil); err == nil {
		t.Fatal("missing original accepted")
	}
	if _, err := InputForPlan(&optimizer.Plan{Kind: optimizer.PlanBTree, IndexPath: "/nonexistent.idx"}, nil); err == nil {
		t.Fatal("missing index accepted")
	}
}

func TestRangeSummary(t *testing.T) {
	ivs := []predicate.Interval{
		{Lo: serde.Int(1), LoInc: true, Hi: serde.Int(5)},
		{Lo: serde.Int(9), LoInc: false},
	}
	want := "[1, 5) ∪ (9, +inf)"
	if got := RangeSummary(ivs); got != want {
		t.Fatalf("summary = %q, want %q", got, want)
	}
	if RangeSummary(nil) != "∅" {
		t.Error("empty summary wrong")
	}
}
