package core

import (
	"context"

	"abw/internal/indepset"
	"abw/internal/memo"
	"abw/internal/topology"
)

// Eq6OverSets solves Eq. 6 for newPath over sets, a complete family of
// U_bg ∪ newPath: from the background's basis when fromBasis is set,
// two-phase otherwise. The solve's pivots go to the cache's cold-solve
// counters.
func (b *Background) Eq6OverSets(ctx context.Context, newPath topology.Path, sets []indepset.Set, fromBasis bool, cache *memo.Cache) (*Result, error) {
	start := b.start
	if !fromBasis {
		start = nil
	}
	universe := topology.LinkUnion(b.universe, newPath)
	return solveEq6(ctx, newLinkPos(universe), widen(b.demand, b.universe, universe), newPath, sets, cache, start)
}
