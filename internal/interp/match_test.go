package interp_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"icbe"
	"icbe/internal/interp"
	"icbe/internal/ir"
	"icbe/internal/progs"
	"icbe/internal/randprog"
)

// verifyVectors are the driver's built-in shadow-execution inputs
// (restructure.verifyInputs): the EOF stream, boundary values and three
// splitmix64 streams.
func verifyVectors() [][]int64 {
	out := [][]int64{nil, {0}, {1, 2, 3, 4, 5, 6, 7, 8}, {-1, -2, -3, 0, 1, -128, 255, 256}}
	for _, sv := range []struct {
		seed uint64
		n    int
	}{{3, 6}, {17, 11}, {99, 17}} {
		s := sv.seed*2654435761 + 1
		v := make([]int64, sv.n)
		for i := range v {
			s += 0x9E3779B97F4A7C15
			z := s
			z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
			z = (z ^ (z >> 27)) * 0x94D049BB133111EB
			z ^= z >> 31
			v[i] = int64(z%257) - 128
		}
		out = append(out, v)
	}
	return out
}

// fullTier returns the service's full-tier options.
func fullTier(verify []int64) icbe.Options {
	opts := icbe.DefaultOptions()
	opts.Check, opts.CheckFatal, opts.Verify, opts.Fold = true, true, true, true
	opts.VerifyInputs = [][]int64{verify}
	return opts
}

// matchReference runs p under Run and the reference interpreter, with and
// without profiling, and reports any difference in the Result or the error.
func matchReference(t testing.TB, label string, p *ir.Program, opts interp.Options) {
	t.Helper()
	for _, prof := range []bool{false, true} {
		opts.Profile = prof
		got, gotErr := interp.Run(p, opts)
		want, wantErr := referenceRun(p, opts)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s (profile %v): Result differs\n got %+v\nwant %+v", label, prof, got, want)
		}
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%s (profile %v): error %v, reference %v", label, prof, gotErr, wantErr)
		}
		if gotErr == nil {
			continue
		}
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s (profile %v): error %q, reference %q", label, prof, gotErr, wantErr)
		}
		if errors.Is(gotErr, interp.ErrStepLimit) != errors.Is(wantErr, interp.ErrStepLimit) {
			t.Fatalf("%s (profile %v): errors.Is(ErrStepLimit) differs: %v vs %v", label, prof, gotErr, wantErr)
		}
	}
}

func compile(t testing.TB, src string) *icbe.Program {
	t.Helper()
	p, err := icbe.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v\n%s", err, src)
	}
	return p
}

// optimized returns the program before and after Optimize.
func optimized(t testing.TB, src string, opts icbe.Options) [2]*ir.Program {
	t.Helper()
	p := compile(t, src)
	op, _, err := p.Optimize(opts)
	if err != nil {
		t.Fatalf("optimize: %v", err)
	}
	return [2]*ir.Program{p.Graph(), op.Graph()}
}

// TestRunMatchesReference checks that Run gives the map-based reference's
// Result, error text and error category on the paper programs (before and
// after the full tier), on generated programs and on faulting programs.
func TestRunMatchesReference(t *testing.T) {
	t.Run("paper", func(t *testing.T) {
		for _, w := range progs.All() {
			inputs := append([][]int64{w.Train, w.Ref}, verifyVectors()...)
			for i, g := range optimized(t, w.Source, fullTier(w.Train)) {
				for j, in := range inputs {
					matchReference(t, fmt.Sprintf("%s/%d/input%d", w.Name, i, j), g, interp.Options{Input: in})
				}
			}
		}
	})
	t.Run("randprog", func(t *testing.T) {
		inputs := [][]int64{nil, {1, 2, 3}, {-5, 0, 7, 9, 1 << 40}, {0}, {5}, {-3}}
		var srcs []string
		for seed := uint64(0); seed < 12; seed++ {
			srcs = append(srcs, randprog.Generate(seed, randprog.Config{Procs: 3, MaxStmts: 4, MaxDepth: 2}))
		}
		for seed := uint64(1); seed <= 3; seed++ {
			srcs = append(srcs,
				randprog.Recursion(seed, randprog.RecConfig{}),
				randprog.Scale(seed, randprog.ScaleConfig{Leaves: 6, LeafStmts: 12, Hubs: 3}))
		}
		for k, src := range srcs {
			for i, g := range optimized(t, src, icbe.DefaultOptions()) {
				for j, in := range inputs {
					matchReference(t, fmt.Sprintf("prog%d/%d/input%d", k, i, j), g,
						interp.Options{Input: in, MaxSteps: 2_000_000})
				}
			}
		}
	})
	t.Run("faults", func(t *testing.T) {
		faults := map[string]string{
			"div-zero":   `func main() { var z = input(); print(7); print(1 / z); }`,
			"mod-zero":   `func main() { var z = input(); print(7 % z); }`,
			"nil-load":   `func main() { var p = 0; print(p[0]); }`,
			"nil-store":  `func main() { var p = 0; p[0] = 1; }`,
			"oob-load":   `func main() { var p = alloc(2); print(p[0]); print(p[5]); }`,
			"oob-store":  `func f(p, i) { p[i] = 1; return 0; } func main() { var p = alloc(3); var r = f(p, 2); r = f(p, -9); }`,
			"bad-alloc":  `func main() { var p = alloc(input()); print(1); }`,
			"deep-recur": `func f(n) { if (n <= 0) { return 0; } var r = f(n - 1); return r + 1; } func main() { print(f(input())); }`,
		}
		for name, src := range faults {
			g := compile(t, src).Graph()
			for _, in := range [][]int64{nil, {0}, {-1}, {20000}} {
				matchReference(t, fmt.Sprintf("%s/%v", name, in), g, interp.Options{Input: in})
			}
		}
	})
	t.Run("step-limit", func(t *testing.T) {
		cases := []struct {
			src     string
			budgets []int64
		}{
			{`func main() { var i = 0; while (i >= 0) { i = i + 1; } }`, []int64{1, 2, 3, 7, 100, 1001, 5000}},
			{`func f(n) { if (n == 0) { return 0; } var r = f(n - 1); return r + n; } func main() { print(f(500)); }`,
				[]int64{0, 1, 3, 100, 1001, 5000}},
		}
		for k, c := range cases {
			g := compile(t, c.src).Graph()
			for _, budget := range c.budgets {
				matchReference(t, fmt.Sprintf("prog%d/budget%d", k, budget), g,
					interp.Options{MaxSteps: budget})
			}
		}
	})
	t.Run("invalid-graph", func(t *testing.T) {
		for name, corrupt := range corruptions {
			g := compile(t, corruptSrc).Graph()
			corrupt(t, g)
			if ir.Validate(g) == nil {
				t.Fatalf("%s: corrupted graph passes ir.Validate", name)
			}
			for _, in := range [][]int64{nil, {4}} {
				matchReference(t, fmt.Sprintf("%s/%v", name, in), g, interp.Options{Input: in})
			}
		}
	})
}

// corruptSrc is the program the invalid-graph cases corrupt: f is called
// from two sites, so its exit has two return points.
const corruptSrc = `
var g = 3;
func f(a) { var x = a + g; print(x); return x; }
func main() {
	var y = f(input());
	var z = f(y);
	print(y + z);
}`

// corruptions edit corruptSrc's graph into shapes ir.Validate rejects.
var corruptions = map[string]func(t testing.TB, g *ir.Program){
	// main writes and reads f's local x: a foreign local in main's frame.
	"foreign-local": func(t testing.TB, g *ir.Program) {
		x := varNamed(t, g, "f.x")
		for i := range g.NumNodes() {
			n := g.Node(ir.NodeID(i))
			if n != nil && n.Kind == ir.NPrint && n.Proc == g.MainProc {
				pre := g.NewNode(ir.NAssign, g.MainProc)
				pre.Dst = x
				pre.SetRHS(ir.RHS{Kind: ir.RBinop, Op: ir.OpAdd, A: ir.VarOp(x), B: ir.ConstOp(5)})
				for _, m := range append([]ir.NodeID(nil), n.Preds...) {
					g.RedirectSucc(m, n.ID, pre.ID)
				}
				g.AddEdge(pre.ID, n.ID)
				n.SetVal(ir.VarOp(x))
			}
		}
	},
	// f's formal is main's variable y: bound into f's frame as a foreign
	// local, while f's own a stays zero.
	"foreign-formal": func(t testing.TB, g *ir.Program) {
		g.ProcByName("f").Formals[0] = varNamed(t, g, "main.y")
	},
	// f's formal is the global g: the binding must not write g.
	"global-formal": func(t testing.TB, g *ir.Program) {
		g.ProcByName("f").Formals[0] = varNamed(t, g, "g")
	},
	// A node of f carries an ID outside the arena: its profile count is
	// keyed by that ID.
	"renumbered-node": func(t testing.TB, g *ir.Program) {
		for i := range g.NumNodes() {
			n := g.Node(ir.NodeID(i))
			if n != nil && n.Kind == ir.NPrint && n.Proc != g.MainProc {
				n.ID = ir.NodeID(g.NumNodes() + 5)
			}
		}
	},
	// The second call's return edge is gone: "no return point".
	"no-return-point": func(t testing.TB, g *ir.Program) {
		exit := g.Node(g.ProcByName("f").Exits[0])
		g.RemoveEdge(exit.ID, exit.Succs[len(exit.Succs)-1])
	},
}

func varNamed(t testing.TB, g *ir.Program, name string) ir.VarID {
	t.Helper()
	for _, v := range g.Vars {
		if v.Name == name {
			return v.ID
		}
	}
	t.Fatalf("no variable %q", name)
	return ir.NoVar
}

// FuzzRunMatchesReference compares Run with the reference on generated
// programs, before and after Optimize, for an arbitrary input stream (one
// signed byte per value) and step budget.
func FuzzRunMatchesReference(f *testing.F) {
	f.Add(uint64(1), []byte{1, 2, 3}, int64(0))
	f.Add(uint64(7), []byte{}, int64(50))
	f.Add(uint64(42), []byte{0xff, 0x80, 0x7f}, int64(-3))
	f.Fuzz(func(t *testing.T, seed uint64, raw []byte, maxSteps int64) {
		in := make([]int64, len(raw))
		for i, b := range raw {
			in[i] = int64(int8(b))
		}
		// Generated programs terminate, but keep each run short.
		maxSteps %= 200_000
		if maxSteps <= 0 {
			maxSteps = 200_000 + maxSteps
		}
		src := randprog.Generate(seed, randprog.Config{Procs: 3, MaxStmts: 4, MaxDepth: 2})
		for i, g := range optimized(t, src, icbe.DefaultOptions()) {
			matchReference(t, fmt.Sprintf("seed%d/%d", seed, i), g, interp.Options{Input: in, MaxSteps: maxSteps})
		}
	})
}
