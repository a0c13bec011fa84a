package serveapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"ftsched/internal/appio"
	"ftsched/internal/certify"
	"ftsched/internal/chaos"
	"ftsched/internal/core"
	"ftsched/internal/runtime"
	"ftsched/internal/sim"
)

// MaxRequestBytes bounds the request bodies the server reads — large
// enough for a batch of ~100k cycles on a 50-process application, small
// enough that a hostile body cannot exhaust memory.
const MaxRequestBytes = 32 << 20

// MaxTreeSize bounds the per-request synthesis size (FTQSOptions.M) a
// server accepts, so one request cannot monopolise a shared process with
// an absurd tree.
const MaxTreeSize = 4096

// badRequest builds a 400 *Error.
func badRequest(kind, format string, args ...any) *Error {
	return &Error{Code: http.StatusBadRequest, Kind: kind, Message: fmt.Sprintf(format, args...)}
}

// sniffFormat applies the format-sniffing discipline: the body must be a
// JSON object whose "format" field is FormatV1. It mirrors the tree
// decoders — version first, layout second — so v1 bodies keep decoding
// against any future server.
func sniffFormat(data []byte) *Error {
	var env struct {
		Format *string `json:"format"`
	}
	if err := json.Unmarshal(data, &env); err != nil {
		return badRequest(KindBadRequest, "request body is not a JSON object: %v", err)
	}
	if env.Format == nil {
		return badRequest(KindUnknownFormat, "request carries no format field (want %q)", FormatV1)
	}
	if *env.Format != FormatV1 {
		return badRequest(KindUnknownFormat, "unsupported api format %q (want %q)", *env.Format, FormatV1)
	}
	return nil
}

// decodeInto unmarshals the body in one pass. Only a body that fails to
// decode, decodes without a FormatV1 format, or holds a null literal is
// sniffed: the sniff words format and syntax errors exactly as a
// format-first decode would, so the single pass changes no error. The
// null check keeps a body such as {"format":"ftsched-api/v1",
// "format":null} rejected: the sniffer's *string reads the later null as
// no format, while the request's string field keeps the earlier value.
// Unknown fields are tolerated (forward compatibility within v1);
// unknown formats are not.
func decodeInto(data []byte, dst any, format *string) *Error {
	err := json.Unmarshal(data, dst)
	if err == nil && *format == FormatV1 && !bytes.Contains(data, []byte("null")) {
		return nil
	}
	return classify(data, err)
}

// classify settles a body the single-pass decode could not accept:
// decoding failed with err, or (err nil) the format was left in doubt.
// The sniff words format and syntax errors; any other failure is a
// decoding error, and a nil err the sniff accepts is no error at all.
func classify(data []byte, err error) *Error {
	if werr := sniffFormat(data); werr != nil || err == nil {
		return werr
	}
	return badRequest(KindBadRequest, "decoding request: %v", err)
}

// emptyRaw reports an absent embedded document (missing field or JSON
// null — encoding/json hands both to RawMessage).
func emptyRaw(raw json.RawMessage) bool {
	return len(raw) == 0 || string(raw) == "null"
}

// checkRef validates that a request addresses a tree at all.
func checkRef(ref TreeRef) *Error {
	if ref.TreeKey == "" && emptyRaw(ref.App) {
		return badRequest(KindBadRequest, "request references no tree: set tree_key or embed app")
	}
	return nil
}

// checkOptions bounds wire synthesis options.
func checkOptions(o FTQSOptionsJSON) *Error {
	if o.M > MaxTreeSize {
		return &Error{Code: http.StatusBadRequest, Kind: KindInvalidConfig, Field: "M",
			Message: fmt.Sprintf("tree size M %d exceeds the server bound %d", o.M, MaxTreeSize)}
	}
	if o.Workers < 0 {
		return &Error{Code: http.StatusBadRequest, Kind: KindInvalidConfig, Field: "Workers",
			Message: fmt.Sprintf("Workers must be non-negative (got %d)", o.Workers)}
	}
	return nil
}

// checkTarget validates the tree a request addresses, and the synthesis
// options of an embedded application.
func checkTarget(ref TreeRef) *Error {
	if werr := checkRef(ref); werr != nil {
		return werr
	}
	if ref.Options != nil {
		return checkOptions(*ref.Options)
	}
	return nil
}

// DecodeSynthesizeRequest decodes and validates a synthesis request.
func DecodeSynthesizeRequest(data []byte) (*SynthesizeRequest, *Error) {
	var req SynthesizeRequest
	if werr := decodeInto(data, &req, &req.Format); werr != nil {
		return nil, werr
	}
	if werr := checkSynthesize(&req); werr != nil {
		return nil, werr
	}
	return &req, nil
}

func checkSynthesize(req *SynthesizeRequest) *Error {
	if emptyRaw(req.App) {
		return badRequest(KindBadRequest, "synthesize request embeds no app")
	}
	return checkOptions(req.Options)
}

// DecodeEvalRequest decodes an evaluation request and validates its
// config through sim.MCConfig.Validate — the decoded request carries the
// normalised config, so the server runs exactly what the library would.
func DecodeEvalRequest(data []byte) (*EvalRequest, sim.MCConfig, *Error) {
	var req EvalRequest
	if werr := decodeInto(data, &req, &req.Format); werr != nil {
		return nil, sim.MCConfig{}, werr
	}
	cfg, werr := checkEval(&req)
	if werr != nil {
		return nil, sim.MCConfig{}, werr
	}
	return &req, cfg, nil
}

func checkEval(req *EvalRequest) (sim.MCConfig, *Error) {
	if werr := checkTarget(req.TreeRef); werr != nil {
		return sim.MCConfig{}, werr
	}
	cfg, err := req.Config.MCConfig()
	if err != nil {
		return sim.MCConfig{}, WireError(err)
	}
	return cfg, nil
}

// DecodeCertifyRequest decodes a certification request and validates its
// config through certify.Config.Validate.
func DecodeCertifyRequest(data []byte) (*CertifyRequest, certify.Config, *Error) {
	var req CertifyRequest
	if werr := decodeInto(data, &req, &req.Format); werr != nil {
		return nil, certify.Config{}, werr
	}
	cfg, werr := checkCertify(&req)
	if werr != nil {
		return nil, certify.Config{}, werr
	}
	return &req, cfg, nil
}

func checkCertify(req *CertifyRequest) (certify.Config, *Error) {
	if werr := checkTarget(req.TreeRef); werr != nil {
		return certify.Config{}, werr
	}
	cfg, err := req.Config.CertifyConfig()
	if err != nil {
		return certify.Config{}, WireError(err)
	}
	return cfg, nil
}

// DecodeChaosRequest decodes a chaos-campaign request and validates its
// config through chaos.Config.Validate.
func DecodeChaosRequest(data []byte) (*ChaosRequest, chaos.Config, *Error) {
	var req ChaosRequest
	if werr := decodeInto(data, &req, &req.Format); werr != nil {
		return nil, chaos.Config{}, werr
	}
	cfg, werr := checkChaos(&req)
	if werr != nil {
		return nil, chaos.Config{}, werr
	}
	return &req, cfg, nil
}

func checkChaos(req *ChaosRequest) (chaos.Config, *Error) {
	if werr := checkTarget(req.TreeRef); werr != nil {
		return chaos.Config{}, werr
	}
	cfg, err := req.Config.ChaosConfig()
	if err != nil {
		return chaos.Config{}, WireError(err)
	}
	return cfg, nil
}

// DecodeDispatchRequest decodes a batch dispatch request through the
// hand codec (codec.go) in one pass. Per-cycle model validation needs
// the application and happens in the server once the tree is resolved.
func DecodeDispatchRequest(data []byte) (*DispatchRequest, *Error) {
	req, err := decodeDispatchRequest(data)
	if err != nil {
		return nil, classify(data, err)
	}
	if werr := checkDispatch(req); werr != nil {
		return nil, werr
	}
	return req, nil
}

func checkDispatch(req *DispatchRequest) *Error {
	if werr := checkTarget(req.TreeRef); werr != nil {
		return werr
	}
	if len(req.Cycles) == 0 {
		return badRequest(KindBadRequest, "dispatch request carries no cycles")
	}
	if req.Workers < 0 {
		return &Error{Code: http.StatusBadRequest, Kind: KindInvalidConfig, Field: "Workers",
			Message: fmt.Sprintf("Workers must be non-negative (got %d)", req.Workers)}
	}
	for i, c := range req.Cycles {
		if len(c.Durations) == 0 {
			return badRequest(KindBadRequest, "cycle %d carries no durations", i)
		}
		if c.FaultsAt != nil && len(c.FaultsAt) != len(c.Durations) {
			return badRequest(KindBadRequest, "cycle %d: %d fault counts for %d durations",
				i, len(c.FaultsAt), len(c.Durations))
		}
	}
	return nil
}

// DecodeReloadRequest decodes a hot-reload request.
func DecodeReloadRequest(data []byte) (*ReloadRequest, *Error) {
	var req ReloadRequest
	if werr := decodeInto(data, &req, &req.Format); werr != nil {
		return nil, werr
	}
	if werr := checkReload(&req); werr != nil {
		return nil, werr
	}
	return &req, nil
}

func checkReload(req *ReloadRequest) *Error {
	if req.TreeKey == "" {
		return badRequest(KindBadRequest, "reload request names no tree_key")
	}
	if req.Trim != nil && req.Trim.Scenarios <= 0 {
		return &Error{Code: http.StatusBadRequest, Kind: KindInvalidConfig, Field: "Scenarios",
			Message: fmt.Sprintf("trim Scenarios must be positive (got %d)", req.Trim.Scenarios)}
	}
	return nil
}

// WireError maps any library error onto the typed wire error, preserving
// the field names the typed config errors carry. Unknown errors become
// KindInternal — the one kind clients should treat as a server bug.
func WireError(err error) *Error {
	var werr *Error
	if errors.As(err, &werr) {
		return werr
	}
	var mcErr *sim.ConfigError
	if errors.As(err, &mcErr) {
		return &Error{Code: http.StatusBadRequest, Kind: KindInvalidConfig, Field: mcErr.Field, Message: mcErr.Error()}
	}
	var certErr *certify.ConfigError
	if errors.As(err, &certErr) {
		return &Error{Code: http.StatusBadRequest, Kind: KindInvalidConfig, Field: certErr.Field, Message: certErr.Error()}
	}
	var chaosErr *chaos.ConfigError
	if errors.As(err, &chaosErr) {
		return &Error{Code: http.StatusBadRequest, Kind: KindInvalidConfig, Field: chaosErr.Field, Message: chaosErr.Error()}
	}
	var decErr *appio.DecodeError
	if errors.As(err, &decErr) {
		return &Error{Code: http.StatusBadRequest, Kind: KindInvalidApp, Message: decErr.Error()}
	}
	var sampleErr *sim.SampleError
	if errors.As(err, &sampleErr) {
		return &Error{Code: http.StatusBadRequest, Kind: KindBadRequest, Message: sampleErr.Error()}
	}
	var scenarioErr *runtime.ScenarioSizeError
	if errors.As(err, &scenarioErr) {
		return &Error{Code: http.StatusBadRequest, Kind: KindBadRequest, Message: scenarioErr.Error()}
	}
	if errors.Is(err, core.ErrUnschedulable) {
		return &Error{Code: http.StatusUnprocessableEntity, Kind: KindUnschedulable, Message: err.Error()}
	}
	return &Error{Code: http.StatusInternalServerError, Kind: KindInternal, Message: err.Error()}
}
