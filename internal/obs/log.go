package obs

import (
	"context"
	"io"
	"log/slog"
	"strconv"
	"strings"
	"sync/atomic"
)

// NewLogger returns a leveled JSON logger writing to w. Level strings
// are debug/info/warn/error (case-insensitive); anything else falls
// back to info. abwd owns the single logger and hands it to the server
// via SetLogger; library packages never log.
func NewLogger(w io.Writer, level string) *slog.Logger {
	var lv slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lv = slog.LevelDebug
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		lv = slog.LevelInfo
	}
	return slog.New(slog.NewJSONHandler(w, &slog.HandlerOptions{Level: lv}))
}

type requestIDKeyType struct{}

var requestIDKey requestIDKeyType

// reqSeq numbers requests within one process; combined with procEpoch
// the ids stay unique across daemon restarts.
var reqSeq atomic.Uint64

// reqPrefix is the per-process part of every request id: procEpoch in
// lower-case hex and a dash.
var reqPrefix = strconv.FormatInt(procEpoch, 16) + "-"

// NextRequestID returns a process-unique request id of the form
// <epoch hex>-<seq>, cheap enough to mint per request.
func NextRequestID() string {
	var b [40]byte
	return string(strconv.AppendUint(append(b[:0], reqPrefix...), reqSeq.Add(1), 10))
}

// WithRequestID attaches a request id to a context.
func WithRequestID(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, requestIDKey, id)
}

// RequestIDFrom extracts the request id from a context ("" when absent).
func RequestIDFrom(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	id, _ := ctx.Value(requestIDKey).(string)
	return id
}
