package logic

import "testing"

// FuzzParse mutates formula text: whatever the input, Parse must return
// an error or a formula, and every formula it accepts must print to
// text that parses back to the same formula (equal Key).
func FuzzParse(f *testing.F) {
	for _, in := range printRoundTripInputs {
		f.Add(in)
	}
	v := vocab()
	f.Fuzz(func(t *testing.T, in string) {
		got, err := Parse(in, v)
		if err != nil {
			return
		}
		printed := Print(got)
		re, err := Parse(printed, v)
		if err != nil {
			t.Fatalf("%q printed as %q, which fails to parse: %v", in, printed, err)
		}
		if re.Key() != got.Key() {
			t.Fatalf("%q: round trip through %q changed %s to %s", in, printed, got.Key(), re.Key())
		}
	})
}
