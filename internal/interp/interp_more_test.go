package interp

import (
	"strings"
	"testing"

	"icbe/internal/ir"
)

func TestGlobalInitializers(t *testing.T) {
	res := run(t, `
		var a = 7;
		var b = -3;
		var c;
		func main() { print(a); print(b); print(c); }
	`)
	wantOutput(t, res, 7, -3, 0)
}

func TestAllocZeroCells(t *testing.T) {
	res := run(t, `
		func main() {
			var p = alloc(0);
			var q = alloc(1);
			print(p);
			print(q);
			q[0] = 5;
			print(q[0]);
		}
	`)
	// Zero-size allocation still returns a distinct non-nil address.
	if res.Output[0] == 0 || res.Output[1] == 0 {
		t.Errorf("nil-looking allocations: %v", res.Output)
	}
	if res.Output[2] != 5 {
		t.Errorf("store/load roundtrip = %d", res.Output[2])
	}
}

func TestHeapAddressesDistinct(t *testing.T) {
	res := run(t, `
		func main() {
			var a = alloc(2);
			var b = alloc(2);
			a[0] = 1;
			b[0] = 2;
			print(a[0]);
			print(b[0]);
		}
	`)
	wantOutput(t, res, 1, 2)
}

func TestNegativeIndexWithinHeap(t *testing.T) {
	// ptr+idx addressing allows negative offsets as long as the address
	// stays within the heap; addressing before cell 1 traps.
	res := run(t, `
		func main() {
			var a = alloc(4);
			a[2] = 9;
			var p = a + 3;
			print(p[-1]);
		}
	`)
	wantOutput(t, res, 9)
	err := runErr(t, `
		func main() {
			var a = alloc(4);
			var neg = 0 - a - 5;
			print(a[neg]);
		}
	`)
	if !strings.Contains(err.Error(), "out of bounds") {
		t.Errorf("err = %v", err)
	}
}

func TestModuloNegativeOperands(t *testing.T) {
	res := run(t, `
		func main() {
			var a = -7;
			print(a % 3);
			print(7 % -3);
			print(a / 3);
		}
	`)
	wantOutput(t, res, -1, 1, -2) // Go (and C99) truncated semantics
}

func TestExecCountsCoverCallMachinery(t *testing.T) {
	p, err := ir.Build(`
		func f(a) { return a + 1; }
		func main() { print(f(f(1))); }
	`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(p, Options{Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	f := p.ProcByName("f")
	if got := res.ExecCount[f.Entries[0]]; got != 2 {
		t.Errorf("entry executed %d times, want 2", got)
	}
	if got := res.ExecCount[f.Exits[0]]; got != 2 {
		t.Errorf("exit executed %d times, want 2", got)
	}
	var calls int64
	p.LiveNodes(func(n *ir.Node) {
		if n.Kind == ir.NCall {
			calls += res.ExecCount[n.ID]
		}
	})
	if calls != 2 {
		t.Errorf("calls executed %d, want 2", calls)
	}
}

func TestDeletedNodeControlError(t *testing.T) {
	p, err := ir.Build(`func main() { print(1); print(2); }`)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the graph: make the first print's successor a deleted node.
	var first *ir.Node
	p.LiveNodes(func(n *ir.Node) {
		if n.Kind == ir.NPrint && first == nil {
			first = n
		}
	})
	// DeleteNode drops the edge into the node; put it back.
	second := first.Succs[0]
	p.DeleteNode(second)
	first.Succs = []ir.NodeID{second}
	_, err = Run(p, Options{})
	if err == nil || !strings.Contains(err.Error(), "deleted node") {
		t.Errorf("err = %v, want deleted-node error", err)
	}
}

func TestMissingReturnPointError(t *testing.T) {
	p, err := ir.Build(`
		func f() { return 1; }
		func main() { print(f()); }
	`)
	if err != nil {
		t.Fatal(err)
	}
	// Remove the exit→callexit edge: the frame cannot return.
	var ce *ir.Node
	p.LiveNodes(func(n *ir.Node) {
		if n.Kind == ir.NCallExit {
			ce = n
		}
	})
	_, exit := p.CallSite(ce)
	p.RemoveEdge(exit, ce.ID)
	_, err = Run(p, Options{})
	if err == nil || !strings.Contains(err.Error(), "no return point") {
		t.Errorf("err = %v, want no-return-point error", err)
	}
}

func TestRuntimeErrorMessageFormat(t *testing.T) {
	err := runErr(t, `func main() { var x = 0; print(1 / x); }`)
	re, ok := err.(*RuntimeError)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if re.Line == 0 || re.Node < 0 {
		t.Errorf("missing position info: %+v", re)
	}
	if !strings.Contains(re.Error(), "line") {
		t.Errorf("message = %q", re.Error())
	}
}

func TestByteOfNegativeValues(t *testing.T) {
	res := run(t, `
		func main() {
			var a = -256;
			print(byte(a));
			var b = -255;
			print(byte(b));
		}
	`)
	wantOutput(t, res, 0, 1)
}

func TestLargeIterationCountWithinBudget(t *testing.T) {
	res := run(t, `
		func main() {
			var i = 0;
			var s = 0;
			while (i < 100000) {
				s = s + i;
				i = i + 1;
			}
			print(s);
		}
	`)
	wantOutput(t, res, 4999950000)
}
