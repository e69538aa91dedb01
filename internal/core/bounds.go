package core

import (
	"context"
	"fmt"
	"math"

	"abw/internal/clique"
	"abw/internal/conflict"
	"abw/internal/lp"
	"abw/internal/radio"
	"abw/internal/topology"
)

// FixedRateCliqueBound computes the classical clique upper bound of
// Eq. 7 for a path whose links are pinned to the given rates (the
// baseline inherited from the authors' earlier work [1]): with every
// link of the path carrying the same end-to-end throughput s, each
// clique C of the fixed-rate conflict graph bounds s by 1 / sum_{i in C}
// 1/r_i, and the tightest clique wins. The paper's Sec. 3.2 shows this
// bound is NOT valid once links may change rates over time.
func FixedRateCliqueBound(m conflict.Model, path topology.Path, rates []radio.Rate) (float64, error) {
	if len(path) == 0 {
		return 0, fmt.Errorf("core: empty path")
	}
	if len(path) != len(rates) {
		return 0, fmt.Errorf("core: path has %d links but %d rates", len(path), len(rates))
	}
	assignment := make([]conflict.Couple, len(path))
	for i := range path {
		if rates[i] <= 0 {
			return 0, fmt.Errorf("core: non-positive rate %v for link %d", rates[i], path[i])
		}
		assignment[i] = conflict.Couple{Link: path[i], Rate: rates[i]}
	}
	cliques, err := clique.CliquesForRateVector(m, assignment, clique.Options{})
	if err != nil {
		return 0, fmt.Errorf("core: enumerating fixed-rate cliques: %w", err)
	}
	bound := math.Inf(1)
	for _, c := range cliques {
		if t := c.UnitTransmissionTime(); t > 0 {
			if b := 1 / t; b < bound {
				bound = b
			}
		}
	}
	return bound, nil
}

// CliqueLoadFactor computes the clique time share T_ij of Sec. 3.2: the
// total transmission time per period that the given per-link throughputs
// would require inside the clique. Values above one mean the clique
// constraint is violated by the throughput vector — the paper's
// Hypothesis (8) counterexample machinery (Scenario II yields 1.2 and
// 1.05 at the optimum).
func CliqueLoadFactor(c clique.Clique, throughput map[topology.LinkID]float64) float64 {
	return c.TransmissionTime(func(l topology.LinkID) float64 { return throughput[l] })
}

// MaxCliqueLoadFactor returns the largest clique load factor over the
// maximal cliques of the given fixed rate vector (the T-hat_i of
// Sec. 3.2).
func MaxCliqueLoadFactor(m conflict.Model, assignment []conflict.Couple, throughput map[topology.LinkID]float64) (float64, error) {
	cliques, err := clique.CliquesForRateVector(m, assignment, clique.Options{})
	if err != nil {
		return 0, fmt.Errorf("core: enumerating cliques: %w", err)
	}
	maxT := 0.0
	for _, c := range cliques {
		if t := CliqueLoadFactor(c, throughput); t > maxT {
			maxT = t
		}
	}
	return maxT, nil
}

// UpperBoundLP solves the paper's Eq. 9: the rate-coupled clique upper
// bound on the available bandwidth of newPath given background flows.
// Every rate vector R_i over the link universe is assigned a time share
// gamma_i and, within it, per-link throughputs g_ik constrained by R_i's
// maximal cliques; total delivered throughput must cover demand. The
// bilinear paper form (Y = sum_i gamma_i g_i) is linearized with the
// substitution h_ik = gamma_i * g_ik:
//
//	sum_{k in C_ij} h_ik/r_ik <= gamma_i   (clique constraints, scaled)
//	0 <= h_ik <= gamma_i * r_ik
//	sum_i h_ik >= demand_k + f * I(newPath)
//	sum_i gamma_i <= 1.
//
// The number of rate vectors is capped by Options.OmegaLimit; the paper
// itself notes Omega <= Z^L and defers sparser enumerations to future
// work (see RestrictedUpperBoundLPContext for that heuristic).
func UpperBoundLP(m conflict.Model, background []Flow, newPath topology.Path, opts Options) (*Result, error) {
	return upperBoundOverVectors(context.Background(), m, background, newPath, nil, opts)
}

// RestrictedUpperBoundLPContext is the paper's proposed future-work
// heuristic: Eq. 9 evaluated over an explicit subset of rate vectors
// rather than the full product space. The result is the exact Eq. 9 bound for
// schedules restricted to those vectors; it remains a GLOBAL upper
// bound only when the subset contains the rate vectors some optimal
// schedule uses (Scenario II's {R1, R2}, for instance). An arbitrary
// subset may cut below the unrestricted optimum — see the package tests
// for a demonstration. Vectors are given as one couple per link of the
// universe. The Eq. 9 simplex polls ctx between pivots; see
// AvailableBandwidthContext.
func RestrictedUpperBoundLPContext(ctx context.Context, m conflict.Model, background []Flow, newPath topology.Path, vectors [][]conflict.Couple, opts Options) (*Result, error) {
	if len(vectors) == 0 {
		return nil, fmt.Errorf("core: no rate vectors supplied")
	}
	return upperBoundOverVectors(ctx, m, background, newPath, vectors, opts)
}

func upperBoundOverVectors(ctx context.Context, m conflict.Model, background []Flow, newPath topology.Path, vectors [][]conflict.Couple, opts Options) (*Result, error) {
	universe, err := flowUniverse([]topology.Path{newPath}, background)
	if err != nil {
		return nil, err
	}
	demand := linkDemand(background)
	newCount := linkCount(newPath)

	if vectors == nil {
		vectors, err = enumerateRateVectors(m, universe, opts.omegaLimit())
		if err != nil {
			return nil, err
		}
	}
	if len(vectors) == 0 {
		return &Result{Status: lp.Infeasible, Links: universe}, nil
	}

	prob := lp.NewProblem(lp.Maximize)
	f := prob.AddVar(1)
	gammas := make([]lp.Var, len(vectors))
	hVars := make([]map[topology.LinkID]lp.Var, len(vectors))
	shareRow := make(map[lp.Var]float64, len(vectors))

	for i, vec := range vectors {
		gammas[i] = prob.AddVar(0)
		shareRow[gammas[i]] = 1
		hVars[i] = make(map[topology.LinkID]lp.Var, len(vec))
		for _, cp := range vec {
			hVars[i][cp.Link] = prob.AddVar(0)
		}
		// Clique constraints for this rate vector, scaled by gamma_i.
		cliques, err := clique.CliquesForRateVector(m, vec, clique.Options{})
		if err != nil {
			return nil, fmt.Errorf("core: cliques of rate vector %d: %w", i, err)
		}
		for _, c := range cliques {
			row := make(map[lp.Var]float64, c.Len()+1)
			for _, cp := range c.Couples {
				row[hVars[i][cp.Link]] = 1 / float64(cp.Rate)
			}
			row[gammas[i]] = -1
			if err := prob.AddConstraint(row, lp.LE, 0); err != nil {
				return nil, fmt.Errorf("core: %w", err)
			}
		}
		// Per-link capacity within the vector's share: h <= gamma * r.
		for _, cp := range vec {
			row := map[lp.Var]float64{hVars[i][cp.Link]: 1, gammas[i]: -float64(cp.Rate)}
			if err := prob.AddConstraint(row, lp.LE, 0); err != nil {
				return nil, fmt.Errorf("core: %w", err)
			}
		}
	}
	if err := prob.AddConstraint(shareRow, lp.LE, 1); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	// Demand coverage.
	for _, link := range universe {
		row := make(map[lp.Var]float64)
		for i := range vectors {
			if v, ok := hVars[i][link]; ok {
				row[v] = 1
			}
		}
		if c := newCount[link]; c > 0 {
			row[f] = -float64(c)
		}
		if len(row) == 0 && demand[link] <= 0 {
			continue
		}
		if err := prob.AddConstraint(row, lp.GE, demand[link]); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}

	sol, err := prob.SolveContext(ctx)
	if err != nil {
		return nil, fmt.Errorf("core: solving Eq.9 LP: %w", err)
	}
	res := &Result{Status: sol.Status, Links: universe}
	if sol.Status == lp.Optimal {
		res.Bandwidth = sol.Objective
	}
	return res, nil
}

// enumerateRateVectors lists the product space of alone-supported rates
// over the universe — the Omega of Sec. 3.2 — failing if it exceeds
// limit. Links with no supported rate make the space empty.
func enumerateRateVectors(m conflict.Model, universe []topology.LinkID, limit int) ([][]conflict.Couple, error) {
	size := 1
	ratesPer := make([][]radio.Rate, len(universe))
	for i, l := range universe {
		ratesPer[i] = m.Rates(l)
		if len(ratesPer[i]) == 0 {
			return nil, nil
		}
		size *= len(ratesPer[i])
		if size > limit {
			return nil, fmt.Errorf("core: rate-vector space exceeds limit %d (paper: Omega <= Z^L); use RestrictedUpperBoundLPContext", limit)
		}
	}
	var out [][]conflict.Couple
	cur := make([]conflict.Couple, len(universe))
	var rec func(idx int)
	rec = func(idx int) {
		if idx == len(universe) {
			vec := make([]conflict.Couple, len(cur))
			copy(vec, cur)
			out = append(out, vec)
			return
		}
		for _, r := range ratesPer[idx] {
			cur[idx] = conflict.Couple{Link: universe[idx], Rate: r}
			rec(idx + 1)
		}
	}
	rec(0)
	return out, nil
}
