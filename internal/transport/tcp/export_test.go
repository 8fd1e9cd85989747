package tcp

// FDBodies returns one value of each failure-detector message, for the
// external test package's codec-coverage table.
func FDBodies() []any { return []any{&heartbeatMsg{Beat: 41}, &leaseGrantMsg{Beat: 42}} }
