package metrics

// Counter names of the distributed execution mode. They are process events
// that belong to no stage, so no span can hold them: the dataflow coordinator
// feeds them into the job's metric registry, and core reads the headline
// ones into RunStats for `rdfind -stats`.
const (
	// ClusterLosses counts worker processes declared lost (missed heartbeat
	// deadline or observed kill).
	ClusterLosses = "dataflow.cluster.losses"
	// ClusterRespawns counts replacement worker processes launched after a
	// loss.
	ClusterRespawns = "dataflow.cluster.respawns"
	// ClusterReconnects counts worker connections re-established after a
	// drop (reported by the worker in its hello).
	ClusterReconnects = "dataflow.cluster.reconnects"
	// ClusterCollectives counts completed collective barriers.
	ClusterCollectives = "dataflow.cluster.collectives"
	// ClusterShuffleBytes totals the payload bytes workers contributed to
	// collectives (the network-shuffle volume).
	ClusterShuffleBytes = "dataflow.cluster.shuffle_bytes"
	// ClusterHeartbeats counts worker heartbeats received.
	ClusterHeartbeats = "dataflow.cluster.heartbeats"
	// ClusterDupContribs counts duplicated contributions absorbed by the
	// idempotent collective protocol.
	ClusterDupContribs = "dataflow.cluster.duplicate_contributions"
	// ClusterReplayedReleases counts releases re-sent to workers replaying
	// the collective program after a respawn.
	ClusterReplayedReleases = "dataflow.cluster.replayed_releases"
)
