package utility

import (
	"testing"
)

func TestShifted(t *testing.T) {
	u := MustStep([]Time{100}, []float64{10})
	s := Shifted{F: u, By: 50}
	if s.Value(100) != 10 || s.Value(150) != 10 {
		t.Error("shifted plateau wrong")
	}
	if s.Value(151) != 0 {
		t.Error("shifted tail wrong")
	}
	if s.Horizon() != u.Horizon()+50 {
		t.Errorf("shifted horizon = %d", s.Horizon())
	}
}

func TestMustConstructorsPanic(t *testing.T) {
	cases := map[string]func(){
		"MustStep": func() { MustStep([]Time{1}, []float64{1, 2}) },
	}
	for name, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestStepEmptyTimes(t *testing.T) {
	// Degenerate but legal: zero steps means an error (no breakpoints).
	if _, err := NewStep(nil, nil); err == nil {
		t.Error("empty NewStep should fail (no breakpoints)")
	}
}
