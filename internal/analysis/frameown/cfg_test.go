package frameown

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// parse builds the CFG of the first function in src.
func parse(t *testing.T, src string) *graph {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", "package p\n"+src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
			return buildCFG(fd.Body, nil)
		}
	}
	t.Fatal("no function in src")
	return nil
}

// reach returns the number of reachable blocks (Exit included when reached).
func reach(g *graph) int { return len(g.ReversePostorder()) }

// exitPreds classifies Exit's predecessors as (returns, panics, falls).
func exitPreds(g *graph) (rets, panics, falls int) {
	for _, p := range g.Preds(g.Exit) {
		switch {
		case p.Panics:
			panics++
		case p.Returns():
			rets++
		default:
			falls++
		}
	}
	return
}

func TestStraightLine(t *testing.T) {
	g := parse(t, `func f() { x := 1; _ = x }`)
	if len(g.Entry.Nodes) != 2 {
		t.Fatalf("entry nodes = %d, want 2", len(g.Entry.Nodes))
	}
	rets, panics, falls := exitPreds(g)
	if rets != 0 || panics != 0 || falls != 1 {
		t.Fatalf("exit preds = (%d,%d,%d), want fall-only", rets, panics, falls)
	}
}

func TestIfElseBranchOrder(t *testing.T) {
	g := parse(t, `func f(c bool) int {
		if c {
			return 1
		} else {
			return 2
		}
	}`)
	// Entry ends on the condition with ordered successors.
	if g.Entry.Cond == nil || len(g.Entry.Succs) != 2 {
		t.Fatalf("entry not a 2-way branch: cond=%v succs=%d", g.Entry.Cond, len(g.Entry.Succs))
	}
	thenB, elseB := g.Entry.Succs[0], g.Entry.Succs[1]
	if !thenB.Returns() || !elseB.Returns() {
		t.Fatalf("both arms should return")
	}
	rets, _, falls := exitPreds(g)
	if rets != 2 || falls != 0 {
		t.Fatalf("exit preds rets=%d falls=%d, want 2 returns only", rets, falls)
	}
}

func TestNestedBranches(t *testing.T) {
	g := parse(t, `func f(a, b bool) {
		if a {
			if b {
				return
			}
		}
	}`)
	rets, _, falls := exitPreds(g)
	if rets != 1 || falls != 1 {
		t.Fatalf("exit preds rets=%d falls=%d, want 1 and 1", rets, falls)
	}
}

func TestForLoopBackEdge(t *testing.T) {
	g := parse(t, `func f() {
		for i := 0; i < 3; i++ {
			_ = i
		}
	}`)
	// Find the head (the block holding the condition).
	var head *block
	for _, b := range g.Blocks {
		if b.Cond != nil {
			head = b
		}
	}
	if head == nil {
		t.Fatal("no condition block")
	}
	// The post block must flow back to the head.
	back := false
	for _, p := range g.Preds(head) {
		if p.Index > head.Index {
			back = true
		}
	}
	if !back {
		t.Fatal("no back edge to loop head")
	}
}

func TestBreakContinueTargets(t *testing.T) {
	g := parse(t, `func f(xs []int) int {
		n := 0
		for _, x := range xs {
			if x < 0 {
				continue
			}
			if x > 100 {
				break
			}
			n += x
		}
		return n
	}`)
	rets, _, falls := exitPreds(g)
	if rets != 1 || falls != 0 {
		t.Fatalf("exit preds rets=%d falls=%d, want single return", rets, falls)
	}
	if reach(g) < 8 {
		t.Fatalf("suspiciously small graph: %d reachable blocks", reach(g))
	}
}

func TestLabeledBreak(t *testing.T) {
	g := parse(t, `func f() int {
	outer:
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				if i+j > 3 {
					break outer
				}
			}
		}
		return 9
	}`)
	rets, _, falls := exitPreds(g)
	if rets != 1 || falls != 0 {
		t.Fatalf("exit preds rets=%d falls=%d", rets, falls)
	}
	// The labeled break must reach the return block: the statement after
	// the outer loop is reachable.
	found := false
	for _, b := range g.ReversePostorder() {
		if b.Returns() {
			found = true
		}
	}
	if !found {
		t.Fatal("return unreachable — labeled break mis-linked")
	}
}

func TestGotoBackward(t *testing.T) {
	g := parse(t, `func f(c bool) {
	again:
		if c {
			goto again
		}
	}`)
	// The goto creates a cycle: the label block has ≥2 preds (fallthrough
	// from entry and the goto edge).
	var label *block
	for _, b := range g.ReversePostorder() {
		if len(g.Preds(b)) >= 2 {
			label = b
		}
	}
	if label == nil {
		t.Fatal("no block with two predecessors — goto edge missing")
	}
}

func TestSwitchFallthroughAndDefault(t *testing.T) {
	g := parse(t, `func f(x int) int {
		switch x {
		case 1:
			x++
			fallthrough
		case 2:
			x += 2
		case 3:
			return x
		}
		return x
	}`)
	rets, _, falls := exitPreds(g)
	if rets != 2 || falls != 0 {
		t.Fatalf("exit preds rets=%d falls=%d, want 2 returns", rets, falls)
	}
	// No default: the head must have one more successor than there are
	// arms (the implicit fall-past edge).
	if len(g.Entry.Succs) != 4 {
		t.Fatalf("head succs = %d, want 3 arms + default edge", len(g.Entry.Succs))
	}
}

func TestSelectArms(t *testing.T) {
	g := parse(t, `func f(a, b chan int) int {
		select {
		case v := <-a:
			return v
		case <-b:
			return 0
		}
	}`)
	// Both arms return; no default means no head→join edge, so Exit has
	// exactly the two return preds.
	rets, _, falls := exitPreds(g)
	if rets != 2 || falls != 0 {
		t.Fatalf("exit preds rets=%d falls=%d, want 2 returns", rets, falls)
	}
}

func TestPanicEdge(t *testing.T) {
	g := parse(t, `func f(c bool) {
		if !c {
			panic("no")
		}
	}`)
	_, panics, falls := exitPreds(g)
	if panics != 1 || falls != 1 {
		t.Fatalf("exit preds panics=%d falls=%d, want 1 and 1", panics, falls)
	}
}

func TestUnreachableAfterReturn(t *testing.T) {
	g := parse(t, `func f() int {
		return 1
		return 2 //nolint
	}`)
	for _, b := range g.ReversePostorder() {
		for _, n := range b.Nodes {
			if r, ok := n.(*ast.ReturnStmt); ok {
				if lit, ok := r.Results[0].(*ast.BasicLit); ok && lit.Value == "2" {
					t.Fatal("dead return is reachable")
				}
			}
		}
	}
}
