//go:build !bfsdebug

package cluster

// debugInvariants gates the cluster's bfsdebug checks. In the default
// build it is a false constant, so every `if debugInvariants { ... }`
// block is eliminated by the compiler. Build with `-tags bfsdebug` to
// enable them; see docs/ANALYSIS.md.
const debugInvariants = false
