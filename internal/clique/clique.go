// Package clique implements the paper's rate-coupled cliques (Sec. 3.1):
// sets of (link, rate) couples — at most one couple per link — in which
// every two couples interfere with each other. It provides maximal
// clique enumeration over the full couple universe (Bron-Kerbosch with
// pivoting), maximal cliques *with maximum rates*, per-rate-vector
// cliques (the C_ij of Sec. 3.2), clique transmission times, and the
// local interference cliques used by the distributed estimators (Sec. 4).
package clique

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"abw/internal/conflict"
	"abw/internal/radio"
	"abw/internal/topology"
)

// Clique is a set of mutually interfering couples, sorted by link ID.
type Clique struct {
	Couples []conflict.Couple
}

// New builds a Clique from couples, sorting them by link ID.
func New(couples ...conflict.Couple) Clique {
	cs := make([]conflict.Couple, len(couples))
	copy(cs, couples)
	sort.Slice(cs, func(i, j int) bool { return cs[i].Link < cs[j].Link })
	return Clique{Couples: cs}
}

// Len returns the number of couples.
func (c Clique) Len() int { return len(c.Couples) }

// Rate returns the rate of link in the clique, or 0 if absent.
func (c Clique) Rate(link topology.LinkID) radio.Rate {
	for _, cp := range c.Couples {
		if cp.Link == link {
			return cp.Rate
		}
	}
	return 0
}

// Contains reports whether link is a member.
func (c Clique) Contains(link topology.LinkID) bool { return c.Rate(link) > 0 }

// Links returns member link IDs in ascending order.
func (c Clique) Links() []topology.LinkID {
	out := make([]topology.LinkID, 0, len(c.Couples))
	for _, cp := range c.Couples {
		out = append(out, cp.Link)
	}
	return out
}

// Key returns a canonical identity string, for printing and
// deduplication.
func (c Clique) Key() string {
	var b strings.Builder
	for i, cp := range c.Couples {
		if i > 0 {
			b.WriteByte('|')
		}
		fmt.Fprintf(&b, "%d@%g", cp.Link, float64(cp.Rate))
	}
	return b.String()
}

// sortCliques puts cliques into conflict.CompareCouples order.
func sortCliques(cs []Clique) {
	slices.SortFunc(cs, func(a, b Clique) int { return conflict.CompareCouples(a.Couples, b.Couples) })
}

// String implements fmt.Stringer.
func (c Clique) String() string {
	parts := make([]string, 0, len(c.Couples))
	for _, cp := range c.Couples {
		parts = append(parts, cp.String())
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// TransmissionTime returns the clique time share sum_i y_i / r_i for the
// given per-link demands (the T_ij of Sec. 3.2; with unit demands it is
// the clique transmission time T-hat of Eq. 7). Links with zero demand
// contribute nothing.
func (c Clique) TransmissionTime(demand func(topology.LinkID) float64) float64 {
	total := 0.0
	for _, cp := range c.Couples {
		if cp.Rate <= 0 {
			continue
		}
		total += demand(cp.Link) / float64(cp.Rate)
	}
	return total
}

// UnitTransmissionTime is TransmissionTime with unit demand on every
// member link: sum_i 1/r_i (Eq. 7's T-hat).
func (c Clique) UnitTransmissionTime() float64 {
	return c.TransmissionTime(func(topology.LinkID) float64 { return 1 })
}

// IsClique reports whether every two distinct-link couples in the set
// interfere under m and no link repeats.
func IsClique(m conflict.Model, couples []conflict.Couple) bool {
	seen := make(map[topology.LinkID]bool, len(couples))
	for _, cp := range couples {
		if cp.Rate <= 0 || seen[cp.Link] {
			return false
		}
		seen[cp.Link] = true
	}
	for i := 0; i < len(couples); i++ {
		for j := i + 1; j < len(couples); j++ {
			if !conflict.Interferes(m, couples[i], couples[j]) {
				return false
			}
		}
	}
	return true
}

// ErrLimit is returned when enumeration exceeds the configured limit.
var ErrLimit = fmt.Errorf("clique: enumeration limit exceeded")

// Options configure enumeration.
type Options struct {
	// Limit bounds the number of maximal cliques; 0 means 1<<20.
	Limit int
}

func (o Options) limit() int {
	if o.Limit <= 0 {
		return 1 << 20
	}
	return o.Limit
}

// coupleGraph is an adjacency structure over an indexed couple universe.
type coupleGraph struct {
	couples []conflict.Couple
	adj     [][]bool
}

func newCoupleGraph(m conflict.Model, couples []conflict.Couple) *coupleGraph {
	g := &coupleGraph{couples: couples, adj: make([][]bool, len(couples))}
	for i := range couples {
		g.adj[i] = make([]bool, len(couples))
	}
	for i := 0; i < len(couples); i++ {
		for j := i + 1; j < len(couples); j++ {
			if couples[i].Link == couples[j].Link {
				continue // one couple per link: same-link couples never adjacent
			}
			if conflict.Interferes(m, couples[i], couples[j]) {
				g.adj[i][j] = true
				g.adj[j][i] = true
			}
		}
	}
	return g
}

// maximalCliques runs Bron-Kerbosch with pivoting over g.
func (g *coupleGraph) maximalCliques(limit int) ([][]int, error) {
	var out [][]int
	n := len(g.couples)
	p := make([]int, 0, n)
	for i := 0; i < n; i++ {
		p = append(p, i)
	}
	var rec func(r, p, x []int) error
	rec = func(r, p, x []int) error {
		if len(p) == 0 && len(x) == 0 {
			clique := make([]int, len(r))
			copy(clique, r)
			out = append(out, clique)
			if len(out) > limit {
				return ErrLimit
			}
			return nil
		}
		// Pivot: vertex of p ∪ x with the most neighbors in p.
		pivot, best := -1, -1
		for _, u := range p {
			if d := g.degreeIn(u, p); d > best {
				pivot, best = u, d
			}
		}
		for _, u := range x {
			if d := g.degreeIn(u, p); d > best {
				pivot, best = u, d
			}
		}
		cand := make([]int, 0, len(p))
		for _, v := range p {
			if pivot < 0 || !g.adj[pivot][v] {
				cand = append(cand, v)
			}
		}
		for _, v := range cand {
			newP := g.intersectNeighbors(p, v)
			newX := g.intersectNeighbors(x, v)
			if err := rec(append(r, v), newP, newX); err != nil {
				return err
			}
			p = remove(p, v)
			x = append(x, v)
		}
		return nil
	}
	if err := rec(nil, p, nil); err != nil {
		return nil, err
	}
	return out, nil
}

func (g *coupleGraph) degreeIn(u int, set []int) int {
	d := 0
	for _, v := range set {
		if g.adj[u][v] {
			d++
		}
	}
	return d
}

func (g *coupleGraph) intersectNeighbors(set []int, v int) []int {
	out := make([]int, 0, len(set))
	for _, u := range set {
		if g.adj[v][u] {
			out = append(out, u)
		}
	}
	return out
}

func remove(set []int, v int) []int {
	out := set[:0]
	for _, u := range set {
		if u != v {
			out = append(out, u)
		}
	}
	return out
}

// coupleUniverse lists every (link, alone-rate) couple of the given
// links under m.
func coupleUniverse(m conflict.Model, links []topology.LinkID) []conflict.Couple {
	var out []conflict.Couple
	for _, l := range dedupSorted(links) {
		for _, r := range m.Rates(l) {
			out = append(out, conflict.Couple{Link: l, Rate: r})
		}
	}
	return out
}

// MaximalCliques enumerates the paper's maximal cliques over the given
// links: cliques of couples to which no couple of a new link can be
// added (Sec. 3.1). Results are deterministic.
func MaximalCliques(m conflict.Model, links []topology.LinkID, opts Options) ([]Clique, error) {
	universe := coupleUniverse(m, links)
	g := newCoupleGraph(m, universe)
	raw, err := g.maximalCliques(opts.limit())
	if err != nil {
		return nil, err
	}
	out := make([]Clique, 0, len(raw))
	for _, idxs := range raw {
		cs := make([]conflict.Couple, 0, len(idxs))
		for _, i := range idxs {
			cs = append(cs, universe[i])
		}
		out = append(out, New(cs...))
	}
	sortCliques(out)
	return out, nil
}

// IsMaximal reports whether c is a maximal clique over the given links:
// a clique that no couple of a non-member link extends.
func IsMaximal(m conflict.Model, c Clique, links []topology.LinkID) bool {
	if c.Len() == 0 || !IsClique(m, c.Couples) {
		return false
	}
	for _, l := range dedupSorted(links) {
		if c.Contains(l) {
			continue
		}
		for _, r := range m.Rates(l) {
			cand := make([]conflict.Couple, 0, c.Len()+1)
			cand = append(cand, c.Couples...)
			cand = append(cand, conflict.Couple{Link: l, Rate: r})
			if IsClique(m, cand) {
				return false
			}
		}
	}
	return true
}

// MaximalWithMaxRates filters maximal cliques down to the paper's
// "maximal cliques with maximum rates": cliques that stop being maximal
// cliques when any member's rate is raised to a higher alone-rate.
func MaximalWithMaxRates(m conflict.Model, cliques []Clique, links []topology.LinkID) []Clique {
	var out []Clique
	for _, c := range cliques {
		if isMaxRates(m, c, links) {
			out = append(out, c)
		}
	}
	return out
}

func isMaxRates(m conflict.Model, c Clique, links []topology.LinkID) bool {
	for i, cp := range c.Couples {
		for _, r := range m.Rates(cp.Link) { // descending
			if r <= cp.Rate {
				break
			}
			cand := make([]conflict.Couple, c.Len())
			copy(cand, c.Couples)
			cand[i] = conflict.Couple{Link: cp.Link, Rate: r}
			if IsClique(m, cand) && IsMaximal(m, New(cand...), links) {
				return false
			}
		}
	}
	return true
}

// CliquesForRateVector enumerates the maximal cliques C_ij of Sec. 3.2:
// the rate of every link is fixed by the given assignment (one couple
// per link) and cliques are maximal within that restricted universe.
func CliquesForRateVector(m conflict.Model, assignment []conflict.Couple, opts Options) ([]Clique, error) {
	seen := make(map[topology.LinkID]bool, len(assignment))
	for _, cp := range assignment {
		if seen[cp.Link] {
			return nil, fmt.Errorf("clique: link %d assigned twice", cp.Link)
		}
		seen[cp.Link] = true
	}
	g := newCoupleGraph(m, assignment)
	raw, err := g.maximalCliques(opts.limit())
	if err != nil {
		return nil, err
	}
	out := make([]Clique, 0, len(raw))
	for _, idxs := range raw {
		cs := make([]conflict.Couple, 0, len(idxs))
		for _, i := range idxs {
			cs = append(cs, assignment[i])
		}
		out = append(out, New(cs...))
	}
	sortCliques(out)
	return out, nil
}

// LocalCliques returns the path's local interference cliques (Sec. 4):
// maximal runs of consecutive path links that pairwise interfere at the
// given per-hop rates. rates[i] is the rate of path[i].
func LocalCliques(m conflict.Model, path []topology.LinkID, rates []radio.Rate) ([]Clique, error) {
	if len(path) != len(rates) {
		return nil, fmt.Errorf("clique: path has %d links but %d rates", len(path), len(rates))
	}
	if len(path) == 0 {
		return nil, fmt.Errorf("clique: empty path")
	}
	couples := make([]conflict.Couple, len(path))
	for i := range path {
		couples[i] = conflict.Couple{Link: path[i], Rate: rates[i]}
	}
	// ext[i] = largest j such that path[i..j] pairwise interfere.
	ext := make([]int, len(path))
	for i := range path {
		j := i
		for j+1 < len(path) {
			ok := true
			for k := i; k <= j; k++ {
				if !conflict.Interferes(m, couples[k], couples[j+1]) {
					ok = false
					break
				}
			}
			if !ok {
				break
			}
			j++
		}
		ext[i] = j
	}
	// Keep runs not contained in an earlier longer run.
	var out []Clique
	for i := range path {
		if i > 0 && ext[i-1] >= ext[i] {
			continue // contained in the previous run
		}
		out = append(out, New(couples[i:ext[i]+1]...))
	}
	return out, nil
}

func dedupSorted(links []topology.LinkID) []topology.LinkID {
	out := make([]topology.LinkID, 0, len(links))
	seen := make(map[topology.LinkID]bool, len(links))
	for _, l := range links {
		if !seen[l] {
			seen[l] = true
			out = append(out, l)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
