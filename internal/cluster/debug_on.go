//go:build bfsdebug

package cluster

// debugInvariants enables the cluster's bfsdebug checks: the coordinator
// keeps a slab of every state the shards' replies have reported and
// rejects a state reported twice. A shard that reports a state at two
// levels has broken its seen fold, and the visit stream would count that
// state twice.
const debugInvariants = true
