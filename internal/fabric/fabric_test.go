package fabric

import (
	"testing"

	"manimal/internal/optimizer"
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
