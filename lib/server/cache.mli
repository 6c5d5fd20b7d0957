(** Content-addressed, on-disk result cache for the synthesis service.

    An entry maps a {!key} — the canonical circuit digest
    ({!Accals_network.Network.digest}) combined with the
    result-determining request parameters (metric, bound, samples, seed;
    {e not} the job count, which never changes a result) — to the full
    certified report JSON and the synthesized BLIF. Entries are one JSON
    file each, written atomically (temp file + rename in the cache
    directory), so the cache survives daemon restarts and concurrent
    writers, and a half-written entry can never be observed. A corrupt or
    unreadable entry behaves as a miss.

    Budget-degraded results are never stored (the caller enforces this):
    a cached entry always describes the budget-independent, fully
    converged synthesis of its key. *)

module Json := Accals_telemetry.Json
module Metric := Accals_metrics.Metric

type t

type entry = {
  key : string;
  report : Json.t;  (** the full report, [Report_json] schema *)
  blif : string;  (** the synthesized circuit *)
}

val create : dir:string -> t
(** Open (creating if needed) the cache directory. *)

val dir : t -> string

val key :
  digest:string -> metric:Metric.kind -> bound:float -> samples:int ->
  seed:int -> string
(** Deterministic, filename-safe cache key. *)

val find : t -> string -> entry option
(** Look a key up on disk; [None] on a missing, corrupt or mismatched
    entry. Any read or parse failure is a miss — the channel is always
    closed (a truncated file must not leak an fd per lookup) and a
    corrupt entry is deleted so it stops costing an open + parse on
    every subsequent lookup. A hit refreshes the entry's mtime, which
    is the recency order {!evict} uses. *)

val store : ?max_bytes:int -> t -> entry -> unit
(** Atomically persist an entry (last writer wins). With [max_bytes > 0],
    eviction runs {e before} the write whenever the cache plus the new
    entry would exceed the cap, so the on-disk total never overshoots it
    — not even transiently. Writes go through
    {!Accals_resilience.Fault_io}; on any failure (real or injected
    [ENOSPC]/torn write) the temp file is removed and the previous entry
    for the key, if any, survives intact. *)

val members : entry -> string
(** The entry's report and BLIF as the JSON members
    ["report":…,"blif":…], byte for byte as {!Json.to_string} prints them
    inside an object: what a [result] reply splices in, and what an entry
    file holds after its key. *)

val store_members : ?max_bytes:int -> t -> key:string -> string -> unit
(** {!store} of the entry whose {!members} are given already encoded:
    the file gets the same bytes, and the caller encodes an entry once
    for both the disk and its replies. [store] is this function applied
    to [members e]. *)

val size : t -> int
(** Number of entry files currently on disk. *)

val bytes : t -> int
(** Total size of the entry files on disk, in bytes. *)

type eviction = {
  removed_corrupt : int;  (** unreadable / mismatched entries deleted *)
  removed_lru : int;  (** valid entries deleted oldest-mtime-first *)
  bytes_after : int;
}

val evict : t -> max_bytes:int -> eviction
(** Bring the cache under [max_bytes]: a no-op when it already fits;
    otherwise corrupt entries are removed first (they can never be
    hits), then valid entries least-recently-used first ({!find} hits
    refresh mtimes) until the total fits. Each removal is a single
    [unlink] — concurrent readers see an atomic miss, never a torn
    entry. *)
