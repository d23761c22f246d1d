package main

import "testing"

func TestSeedFlagTakesAnyInteger(t *testing.T) {
	for in, want := range map[string]int64{
		"0":                    0,
		"42":                   42,
		"-5":                   -5,
		"9223372036854775807":  9223372036854775807,
		"9223372036854775808":  -9223372036854775808,
		"18446744073709551615": -1,
		"18446744073709551658": 42,
	} {
		var s seedFlag
		if err := s.Set(in); err != nil {
			t.Fatalf("Set(%q): %v", in, err)
		}
		if int64(s) != want {
			t.Errorf("Set(%q) = %d, want %d", in, int64(s), want)
		}
	}
	for _, in := range []string{"", "x", "1.5"} {
		var s seedFlag
		if s.Set(in) == nil {
			t.Errorf("Set(%q) accepted a non-integer", in)
		}
	}
}
