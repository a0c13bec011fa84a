// Package serveapi is the versioned wire contract of the ftserved
// scheduling service: the JSON request and response DTOs shared by the
// server (internal/serve), the public client package, and the remote modes
// of the command-line tools.
//
// # Format discipline
//
// Every request body carries a "format" field tagged FormatV1
// ("ftsched-api/v1") — the same format-sniffing discipline as the tree
// encodings (ftsched-tree/v2, /v3): decoders sniff the format first and
// reject anything else with a typed *Error, so a future v2 can change any
// layout while v1 bodies keep decoding forever. Responses echo the format.
// Unknown fields are ignored (forward compatibility within a version);
// unknown formats are not.
//
// # Validation discipline
//
// Request decoding reuses the library's config validation verbatim:
// sim.MCConfig.Validate, certify.Config.Validate and chaos.Config.Validate
// run on the decoded payload, and their typed errors
// (*sim.ConfigError, *certify.ConfigError, *chaos.ConfigError) are mapped
// onto the wire *Error with Kind KindInvalidConfig and the offending field
// name — so the CLI, the library and the wire reject bad input
// identically.
//
// # Codec discipline
//
// The /v1/dispatch DTOs (DispatchRequest, DispatchResponse and the types
// inside them) have a hand codec, codec.go: DecodeDispatchRequest reads a
// body in one reflection-free pass, sniffing the format only when the
// body fails to decode, and AppendDispatchRequest, AppendDispatchResponse
// and DecodeDispatchResponse serve the client and the server's response.
// encoding/json stays the codec of every other endpoint and is the hand
// codec's test oracle: the differential fuzz targets require the same
// verdict, the same values and the same bytes on arbitrary input, and
// TestDispatchCodecCoversSchema sets every field of the dispatch DTOs by
// reflection, so a field added without codec support fails tier-1.
//
// # Identifier discipline
//
// Processes are referenced by integer ProcessID on the wire (the index in
// the application's process order, which is stable for a given application
// encoding); tree nodes by NodeID. Scenario durations are positional
// arrays indexed by ProcessID, mirroring runtime.Scenario. Only the
// counterexample embedded in a failed certification uses the name-keyed
// appio counterexample format, because it is replayed through
// ftsim -replay.
package serveapi
