package obs

import (
	"reflect"
	"strings"
	"sync"
)

// RegisterStats makes a subsystem's stats struct the single definition
// of its metrics: every field of T tagged
//
//	metric:"counter penelope_x_total" help:"..."
//	metric:"gauge penelope_x" help:"..."
//
// becomes one family reading that field. Counter fields may be any
// integer kind; gauge fields any integer, float or bool (1/0) kind.
// Untagged fields are skipped. A malformed tag or unsupported field
// kind panics at registration, like a duplicate name.
//
// All families of one source share one snapshot: a family read takes a
// fresh snapshot only when that same family was already read from the
// current one. An exposition or sampling pass reads each family once,
// so it calls snapshot once per pass, and no read ever sees a value
// older than the previous read of the same family.
func RegisterStats[T any](reg *Registry, snapshot func() T) {
	t := reflect.TypeFor[T]()
	if t.Kind() != reflect.Struct {
		panic("obs: RegisterStats needs a struct type, got " + t.String())
	}
	src := &statsSource[T]{snapshot: snapshot, read: ^uint64(0)}
	bit := uint64(1)
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		tag, ok := f.Tag.Lookup("metric")
		if !ok {
			continue
		}
		kindName, name, ok := strings.Cut(tag, " ")
		if !ok {
			panic("obs: bad metric tag on " + t.String() + "." + f.Name + ": " + tag)
		}
		if bit == 0 {
			panic("obs: more than 64 metric fields in " + t.String())
		}
		fam := &family{name: name, help: f.Tag.Get("help")}
		mask := bit
		switch k := f.Type.Kind(); {
		case kindName == "counter" && k >= reflect.Int && k <= reflect.Uint64:
			fam.kind = kindCounter
			fam.counterFn = func() uint64 { return src.uint(mask, i) }
		case kindName == "gauge" && (k >= reflect.Int && k <= reflect.Float64 || k == reflect.Bool):
			fam.kind = kindGauge
			fam.gaugeFn = func() float64 { return src.float(mask, i) }
		default:
			panic("obs: metric tag " + tag + " does not fit field " + t.String() + "." + f.Name + " of kind " + k.String())
		}
		reg.register(fam)
		bit <<= 1
	}
}

// statsSource memoizes one snapshot for the families of a stats struct.
// read holds one bit per family already served from v; a family whose
// bit is set triggers the next snapshot.
type statsSource[T any] struct {
	snapshot func() T

	mu   sync.Mutex
	v    T
	read uint64
}

// lock locks mu, first replacing the snapshot when the family with bit
// mask was already served from it. snapshot runs unlocked: it takes the
// subsystem's own locks, and concurrent passes may each take one.
func (s *statsSource[T]) lock(mask uint64) {
	s.mu.Lock()
	if s.read&mask != 0 {
		s.mu.Unlock()
		v := s.snapshot()
		s.mu.Lock()
		s.v, s.read = v, 0
	}
	s.read |= mask
}

func (s *statsSource[T]) uint(mask uint64, i int) uint64 {
	s.lock(mask)
	defer s.mu.Unlock()
	v := reflect.ValueOf(&s.v).Elem().Field(i)
	if v.CanUint() {
		return v.Uint()
	}
	return uint64(v.Int())
}

func (s *statsSource[T]) float(mask uint64, i int) float64 {
	s.lock(mask)
	defer s.mu.Unlock()
	switch v := reflect.ValueOf(&s.v).Elem().Field(i); {
	case v.CanUint():
		return float64(v.Uint())
	case v.CanInt():
		return float64(v.Int())
	case v.CanFloat():
		return v.Float()
	case v.Bool():
		return 1
	}
	return 0
}
