package radio

// Classes returns a copy of the profile's rate classes in descending
// rate order.
func (p *Profile) Classes() []RateClass {
	out := make([]RateClass, len(p.classes))
	copy(out, p.classes)
	return out
}
