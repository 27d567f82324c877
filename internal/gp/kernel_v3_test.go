//go:build amd64.v3

package gp

// A GOAMD64=v3 build assumes AVX2 and FMA: it starts only where they are,
// and math.Exp takes its FMA path there unconditionally.
func init() { builtForV3 = true }
