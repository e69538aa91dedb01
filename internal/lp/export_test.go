package lp

import "fmt"

// SetObjCoef replaces the objective coefficient of v.
func (p *Problem) SetObjCoef(v Var, c float64) error {
	if int(v) < 0 || int(v) >= len(p.obj) {
		return fmt.Errorf("lp: variable %d out of range", v)
	}
	p.obj[v] = c
	return nil
}
