package synth

import (
	"fmt"

	"crncompose/internal/classify"
	"crncompose/internal/compose"
	"crncompose/internal/crn"
	"crncompose/internal/progress"
	"crncompose/internal/semilinear"
	"crncompose/internal/vec"
)

// GeneralOptions tune the Lemma 6.2 construction.
type GeneralOptions struct {
	// Classify passes through to the classifier; a smaller Bound yields a
	// smaller eventual threshold n and therefore a much smaller CRN.
	// Classify.Ctx, when set, also cancels the synthesis itself: the
	// construction polls it before every restriction module it builds (the
	// recursion of equation (1)), so a canceled General returns a wrapped
	// ctx.Err() within one module's work.
	Classify classify.Options
	// N overrides the eventual threshold (uniform across coordinates).
	// Must satisfy f(x) = min_k g_k(x) for all x ≥ (N,...,N); the value
	// from classification always does. 0 means "use the classifier's".
	N int64
	// Progress, when non-nil, receives a "synth.modules" event per
	// restriction module built at the top recursion level (Done = modules
	// built, Total = d·n modules). Never changes the construction.
	Progress progress.Reporter
}

// ctxErr polls the construction's context (carried on Classify.Ctx).
func (o *GeneralOptions) ctxErr() error {
	if o.Classify.Ctx == nil {
		return nil
	}
	select {
	case <-o.Classify.Ctx.Done():
		return fmt.Errorf("synth: construction canceled: %w", o.Classify.Ctx.Err())
	default:
		return nil
	}
}

// NotComputableError reports that f fails Theorem 5.2 and carries the
// classifier's verdict (including a Lemma 4.1 contradiction when found).
type NotComputableError struct {
	Name   string
	Result *classify.Result
}

func (e *NotComputableError) Error() string {
	return fmt.Sprintf("synth: %s is not obliviously-computable: %s", e.Name, e.Result.Reason)
}

// General implements Lemma 6.2: given a semilinear f satisfying
// Theorem 5.2, it builds an output-oblivious CRN (with one leader) stably
// computing f via equation (1):
//
//	f(x) = min[ f(x∨n),
//	            f[x(i)→j](x) + 1{x(i)>j}(x)·f(x∨n) ]  for i ≤ d, j < n
//
// The recursion bottoms out at d = 1 with the Theorem 3.1 construction.
// It returns the CRN together with the classification used.
func General(f *semilinear.Func, opts GeneralOptions) (*crn.CRN, *classify.Result, error) {
	res, err := classify.Analyze(f, opts.Classify)
	if err != nil {
		return nil, nil, err
	}
	if !res.Computable {
		return nil, res, &NotComputableError{Name: f.Name, Result: res}
	}
	c, err := build(f, res, opts)
	if err != nil {
		return nil, res, err
	}
	return c, res, nil
}

func build(f *semilinear.Func, res *classify.Result, opts GeneralOptions) (*crn.CRN, error) {
	d := f.Dim()
	if d == 1 {
		// Theorem 3.1 is both simpler and smaller in 1D.
		spec, err := FitOneDim(func(x int64) int64 { return f.Eval(vec.New(x)) }, 0, 0)
		if err != nil {
			return nil, fmt.Errorf("synth: 1D fit of %s: %w", f.Name, err)
		}
		return OneDim(spec)
	}

	n := opts.N
	if n == 0 {
		n = res.N.MaxComponent()
	}
	nv := vec.Const(d, n)

	b := compose.NewBuilder()
	inputs := make([]crn.Species, d)
	for i := range inputs {
		inputs[i] = crn.Species(fmt.Sprintf("X%d", i+1))
		b.Claim(inputs[i])
	}
	out := crn.Species("Y")
	b.Claim(out)
	var leaders []crn.Species

	// ---- Module B: V = f(x ∨ n) = min_k g_k((x−n)+ + n). ----
	quilts := res.EventualMin.Terms
	m := len(quilts)
	// Clamp each input copy: Z_i = (x_i − n)+, then fan each Z_i out to the
	// m quilt modules.
	clampIn := make([]crn.Species, d)   // dedicated input copies for clamps
	quiltIn := make([][]crn.Species, m) // quiltIn[k][i]
	for k := range quiltIn {
		quiltIn[k] = make([]crn.Species, d)
	}
	for i := 0; i < d; i++ {
		clampIn[i] = b.Fresh(fmt.Sprintf("XC%d", i+1))
		z := b.Fresh(fmt.Sprintf("Z%d", i+1))
		l, err := b.Instantiate(ClampCRN(n), fmt.Sprintf("clamp%d.", i+1), []crn.Species{clampIn[i]}, z)
		if err != nil {
			return nil, err
		}
		leaders = appendLeader(leaders, l)
		dsts := make([]crn.Species, m)
		for k := 0; k < m; k++ {
			quiltIn[k][i] = b.Fresh(fmt.Sprintf("ZQ%d_%d", k, i+1))
			dsts[k] = quiltIn[k][i]
		}
		b.AddFanOut(z, dsts...)
	}
	// Translated quilt modules W_k = g_k(z + n) (nonnegative since
	// z + n ≥ n; Lemma 6.1 applies).
	wk := make([]crn.Species, m)
	for k, g := range quilts {
		tg := g.Translate(nv)
		qc, err := FromQuilt(tg)
		if err != nil {
			return nil, fmt.Errorf("synth: quilt module %d: %w", k, err)
		}
		wk[k] = b.Fresh(fmt.Sprintf("W%d", k))
		l, err := b.Instantiate(qc, fmt.Sprintf("g%d.", k), quiltIn[k], wk[k])
		if err != nil {
			return nil, err
		}
		leaders = appendLeader(leaders, l)
	}
	// V = min_k W_k.
	v := b.Fresh("V")
	l, err := b.Instantiate(MinCRN(m), "minV.", wk, v)
	if err != nil {
		return nil, err
	}
	leaders = appendLeader(leaders, l)

	// ---- Modules C/D: one min-term per (i, j): T_{i,j} =
	// f[x(i)→j](x) + 1{x(i)>j}·V. ----
	type termRef struct{ sp crn.Species }
	var minTerms []termRef
	// V fans out to the final min plus one copy per indicator.
	numTerms := d * int(n)
	vCopies := make([]crn.Species, 0, numTerms+1)
	vFinal := b.Fresh("Vmin")
	vCopies = append(vCopies, vFinal)
	minTerms = append(minTerms, termRef{sp: vFinal})

	// Dedicated input copies per restriction module and per indicator.
	type consumer struct{ sp crn.Species }
	inputConsumers := make([][]consumer, d) // per original input

	modTotal := int64(d) * n
	var modDone int64
	for i := 0; i < d; i++ {
		for j := int64(0); j < n; j++ {
			// Each restriction module is one bounded unit of recursive
			// work — the construction's deterministic cancellation point.
			if err := opts.ctxErr(); err != nil {
				return nil, err
			}
			label := fmt.Sprintf("r%d_%d", i+1, j)
			// Recursive module for the restriction (arity d−1).
			rf := f.Restrict(i, j)
			// Progress is reported only at this recursion level; the
			// recursive calls run with the bare options.
			subOpts := opts
			subOpts.Progress = nil
			sub, _, err := General(rf, subOpts)
			if err != nil {
				return nil, fmt.Errorf("synth: restriction x(%d)→%d of %s: %w", i+1, j, f.Name, err)
			}
			modDone++
			progress.Post(opts.Progress, "synth.modules", modDone, modTotal)
			// Its inputs: copies of every original input except i.
			rIns := make([]crn.Species, 0, d-1)
			for k := 0; k < d; k++ {
				if k == i {
					continue
				}
				cp := b.Fresh(fmt.Sprintf("X%d_%s", k+1, label))
				inputConsumers[k] = append(inputConsumers[k], consumer{sp: cp})
				rIns = append(rIns, cp)
			}
			a := b.Fresh("A_" + label)
			l, err := b.Instantiate(sub, label+".", rIns, a)
			if err != nil {
				return nil, err
			}
			leaders = appendLeader(leaders, l)

			// Indicator: T = A + 1{x(i) > j}·B with B a copy of V and the
			// gate watching a dedicated copy of X_i.
			gate := b.Fresh(fmt.Sprintf("X%d_gate_%s", i+1, label))
			inputConsumers[i] = append(inputConsumers[i], consumer{sp: gate})
			bIn := b.Fresh("B_" + label)
			vCopies = append(vCopies, bIn)
			tOut := b.Fresh("T_" + label)
			l, err = b.Instantiate(IndicatorCRN(j), "ind_"+label+".", []crn.Species{a, bIn, gate}, tOut)
			if err != nil {
				return nil, err
			}
			leaders = appendLeader(leaders, l)
			minTerms = append(minTerms, termRef{sp: tOut})
		}
	}
	b.AddFanOut(v, vCopies...)

	// ---- Input fan-out: X_i → clamp copy + all module copies. ----
	for i := 0; i < d; i++ {
		dsts := []crn.Species{clampIn[i]}
		for _, c := range inputConsumers[i] {
			dsts = append(dsts, c.sp)
		}
		b.AddFanOut(inputs[i], dsts...)
	}

	// ---- Final min over all terms. ----
	termSpecies := make([]crn.Species, len(minTerms))
	for i, t := range minTerms {
		termSpecies[i] = t.sp
	}
	l, err = b.Instantiate(MinCRN(len(termSpecies)), "minY.", termSpecies, out)
	if err != nil {
		return nil, err
	}
	leaders = appendLeader(leaders, l)

	return b.Finish(inputs, out, leaders...)
}

func appendLeader(ls []crn.Species, l crn.Species) []crn.Species {
	if l != "" {
		return append(ls, l)
	}
	return ls
}
