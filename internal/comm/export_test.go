package comm

// Resealed exports resealed to the external test package, whose fault-plan
// mutations must reach the parser past the checksum too.
var Resealed = resealed
