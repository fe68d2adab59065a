package engine

// DecodeStateMade exposes decodeState to the external tests: DecodeState
// plus the bytes of the slices the decode allocated.
var DecodeStateMade = decodeState
