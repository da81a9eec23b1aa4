package tm

import (
	"reflect"
	"testing"
)

// TestStatsSubCoversEveryField guards the hand-written Sub and Add against
// field drift: a counter added to Stats but forgotten in Sub would silently
// report absolute values as deltas, one forgotten in Add would vanish from
// every sum (shard.Store.Stats). Built with reflection so the test
// itself never needs updating — and it doubles as the contract check for
// the metrics registry's reflection bridge (core.RegisterMetrics walks the
// same fields).
func TestStatsSubCoversEveryField(t *testing.T) {
	st := reflect.TypeOf(Stats{})
	for i := 0; i < st.NumField(); i++ {
		if k := st.Field(i).Type.Kind(); k != reflect.Uint64 {
			t.Fatalf("Stats.%s is %v; every Stats field must be uint64 (Sub and the metrics bridge assume it)", st.Field(i).Name, k)
		}
	}
	// Give every field of a a distinct large value and every field of b a
	// distinct smaller one, so each field's expected delta is unique.
	var a, b Stats
	av, bv := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < st.NumField(); i++ {
		av.Field(i).SetUint(uint64(1000 * (i + 1)))
		bv.Field(i).SetUint(uint64(i + 1))
	}
	d := a.Sub(b)
	dv := reflect.ValueOf(d)
	for i := 0; i < st.NumField(); i++ {
		want := uint64(1000*(i+1)) - uint64(i+1)
		if got := dv.Field(i).Uint(); got != want {
			t.Errorf("Sub does not cover Stats.%s: delta %d, want %d", st.Field(i).Name, got, want)
		}
	}
	sv := reflect.ValueOf(a.Add(b))
	for i := 0; i < st.NumField(); i++ {
		want := uint64(1000*(i+1)) + uint64(i+1)
		if got := sv.Field(i).Uint(); got != want {
			t.Errorf("Add does not cover Stats.%s: sum %d, want %d", st.Field(i).Name, got, want)
		}
	}
	// Sub of a value with itself must be all zero (no field inverted or
	// cross-wired).
	z := reflect.ValueOf(a.Sub(a))
	for i := 0; i < st.NumField(); i++ {
		if z.Field(i).Uint() != 0 {
			t.Errorf("Sub(self).%s = %d, want 0", st.Field(i).Name, z.Field(i).Uint())
		}
	}
}
