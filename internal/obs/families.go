package obs

// FamilyKind is the exposition type of a family, for visitors.
type FamilyKind int

const (
	KindCounter FamilyKind = iota
	KindGauge
	KindHistogram
)

// FamilyInfo describes one registered family to a Families visitor.
// Exactly one of the value accessors is set per kind: ReadCounter for
// counters, ReadGauge for gauges, Hist or Vec for histograms.
type FamilyInfo struct {
	Name string
	Help string
	Kind FamilyKind

	ReadCounter func() uint64
	ReadGauge   func() float64
	Hist        *Histogram
	VecLabel    string
	Vec         *HistogramVec
}

// Families calls fn for every registered family in name order. It is
// the binding hook for samplers (the embedded tsdb): call it once,
// cache the accessors, and re-call only when Version moves. The
// accessors themselves are safe for concurrent use and never allocate.
func (r *Registry) Families(fn func(FamilyInfo)) {
	for _, f := range r.sorted() {
		info := FamilyInfo{Name: f.name, Help: f.help}
		switch f.kind {
		case kindCounter:
			info.Kind = KindCounter
			info.ReadCounter = f.counterFn
		case kindGauge:
			info.Kind = KindGauge
			info.ReadGauge = f.gaugeFn
		case kindHistogram:
			info.Kind = KindHistogram
			info.Hist = f.hist
			if f.vec != nil {
				info.VecLabel = f.vec.label
				info.Vec = f.vec
			}
		}
		fn(info)
	}
}
