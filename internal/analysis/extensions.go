package analysis

import (
	"sort"

	"icbe/internal/ir"
)

// This file implements two applications the paper describes in §5 beyond
// the core optimization:
//
//   - assisting hardware branch prediction: when correlation is statically
//     detectable, the analysis can tell the predictor *which* earlier
//     branch (or other source) determines the outcome, instead of the
//     hardware tracking the last k branches;
//   - inlining guidance: procedures that generate correlation should get a
//     higher inlining priority, so a conventional inliner plus
//     intraprocedural elimination can harvest the correlation.

// SourceKind classifies where a correlation originates — the paper's four
// sources of static correlation.
type SourceKind int

// Correlation source kinds.
const (
	SrcConstant SourceKind = iota // constant assignment
	SrcBranch                     // an earlier conditional's outcome
	SrcByte                       // unsigned→signed conversion (byte)
	SrcDeref                      // pointer dereference (non-nil)
	SrcAlloc                      // allocation result (non-nil)
	SrcOther
)

func (k SourceKind) String() string {
	switch k {
	case SrcConstant:
		return "constant"
	case SrcBranch:
		return "branch"
	case SrcByte:
		return "byte-conversion"
	case SrcDeref:
		return "dereference"
	case SrcAlloc:
		return "allocation"
	}
	return "other"
}

// Source is one resolution site of the analyzed conditional: executing it
// decides the conditional's outcome along the paths that lead from it to
// the conditional.
type Source struct {
	// Node is the resolution site.
	Node ir.NodeID
	// Kind classifies the correlation source.
	Kind SourceKind
	// Branch, for Kind == SrcBranch, names the earlier conditional whose
	// outcome predicts the analyzed one — the paper's prediction hint.
	Branch ir.NodeID
	// Answer is the decided outcome (AnsTrue or AnsFalse).
	Answer AnswerSet
	// SameProc reports whether the source lies in the conditional's own
	// procedure; interprocedural sources are what ICBE adds over
	// intraprocedural elimination.
	SameProc bool
}

// CorrelationSources lists the resolution sites that decide the analyzed
// conditional (answers TRUE or FALSE), classified by source kind. For
// branch sources the originating conditional is identified, providing the
// paper's "which recent branch should be used for prediction" directive.
func (r *Result) CorrelationSources(p *ir.Program) []Source {
	condProc := -1
	if n := p.Node(r.Cond); n != nil {
		condProc = n.Proc
	}
	var out []Source
	r.ForEachResolved(func(pn ir.NodeID, _ *Query, ans AnswerSet) {
		if ans&(AnsTrue|AnsFalse) == 0 {
			return
		}
		node := p.Node(pn)
		if node == nil {
			return
		}
		s := Source{Node: pn, Answer: ans & (AnsTrue | AnsFalse), Kind: SrcOther,
			Branch: ir.NoNode, SameProc: node.Proc == condProc}
		switch node.Kind {
		case ir.NAssign:
			switch node.RHS().Kind {
			case ir.RConst:
				s.Kind = SrcConstant
			case ir.RByte:
				s.Kind = SrcByte
			case ir.RAlloc:
				s.Kind = SrcAlloc
			}
		case ir.NAssert:
			// Branch-arm asserts have a branch predecessor; dereference
			// asserts follow loads and stores.
			s.Kind = SrcDeref
			for _, m := range node.Preds {
				if mn := p.Node(m); mn != nil && mn.Kind == ir.NBranch {
					s.Kind = SrcBranch
					s.Branch = m
					break
				}
			}
		}
		out = append(out, s)
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// ProcPriority scores one procedure for correlation-directed inlining.
type ProcPriority struct {
	Proc int
	Name string
	// Conds counts conditionals whose correlation crosses this
	// procedure's boundary; Weight adds each crossing's dynamic benefit
	// when a profile is supplied (nil profile weights each crossing 1).
	Conds  int
	Weight int64
}

// InliningPriorities ranks procedures by the correlation that crosses
// their boundaries: a procedure containing resolution sites for another
// procedure's conditionals is a profitable inlining candidate, because
// inlining it lets a purely intraprocedural eliminator see the correlation
// (paper §5, "Procedure inlining"). execCount may be nil.
func InliningPriorities(p *ir.Program, opts Options, execCount map[ir.NodeID]int64) []ProcPriority {
	an := New(p, opts)
	score := make(map[int]*ProcPriority)
	p.LiveNodes(func(b *ir.Node) {
		if b.Kind != ir.NBranch || !b.Analyzable() {
			return
		}
		res := an.AnalyzeBranch(b.ID)
		if res == nil || !res.HasCorrelation() {
			return
		}
		credited := make(map[int]bool)
		res.ForEachResolved(func(pn ir.NodeID, _ *Query, ans AnswerSet) {
			if ans&(AnsTrue|AnsFalse) == 0 {
				return
			}
			node := p.Node(pn)
			if node == nil || node.Proc == b.Proc {
				return
			}
			pp := score[node.Proc]
			if pp == nil {
				pp = &ProcPriority{Proc: node.Proc, Name: p.Procs[node.Proc].Name}
				score[node.Proc] = pp
			}
			if !credited[node.Proc] {
				pp.Conds++
				credited[node.Proc] = true
			}
			if execCount != nil {
				pp.Weight += execCount[pn]
			} else {
				pp.Weight++
			}
		})
		res.Release()
	})
	out := make([]ProcPriority, 0, len(score))
	for _, pp := range score {
		out = append(out, *pp)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Weight != out[j].Weight {
			return out[i].Weight > out[j].Weight
		}
		return out[i].Proc < out[j].Proc
	})
	return out
}
