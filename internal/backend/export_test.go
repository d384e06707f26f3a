package backend

// RefListSchedule is the block scheduler over the all-pairs reference
// DAG, for the external corpus test.
var RefListSchedule = refListSchedule
