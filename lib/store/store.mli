(** Persistent, content-addressed design store.

    Maps string keys (config fingerprint + D4-canonical statement
    signature) to string payloads (serialized evaluated design points).
    With a [root] directory the store is on-disk and shared across
    processes: each entry is one file named by the MD5 of its key, with
    a versioned header carrying payload length and digest so corrupted
    or truncated entries are detected at load and degrade to a miss —
    never a crash, never a bad payload.  Writes are tempfile + rename,
    so concurrent writers (same key or not) can only race {e complete}
    files into place.  The entry files are the store's only record, so
    handles over one root, in one process or several, see each other's
    entries.  Without a [root] the store is a plain in-memory table with
    the same interface.

    Every store registers its hit/miss counters into
    {!Tl_par.Cache}'s registry so benchmark and observability code
    report it alongside the in-memory memo tables ([clear_all] resets
    the counters, not the disk contents). *)

type t

val open_store : ?retry:Tl_resil.Retry.policy -> ?root:string -> unit -> t
(** Open (creating directories as needed) a store rooted at [root], or
    an in-memory store when [root] is omitted.  A store on disk holds
    [<root>/entries/] and [<root>/tmp/] and nothing else.

    Disk I/O is wrapped in [retry] (default {!Tl_resil.Retry.default}:
    3 attempts, seeded exponential backoff on [Sys_error]-class
    failures).  A read that exhausts its retries degrades to a miss and
    a write that exhausts them is dropped (future miss) — the store
    never propagates transient I/O failures to its caller.  Entry
    tempfiles are fsynced before the atomic rename, so a crash cannot
    surface a renamed-but-torn entry. *)

val find : t -> string -> string option
(** Look up a key.  On disk the entry file is probed directly, so
    entries written by other processes since {!open_store} are found.
    A missing, truncated, corrupted or key-mismatched entry is a miss. *)

val put : t -> string -> string -> unit
(** Insert a payload.  First insertion wins semantics: concurrent
    writers of one key each write a complete file; whichever rename
    lands last is the visible one, and since payloads for a given key
    are deterministic this is indistinguishable from first-wins.  On
    disk a put writes one file, the entry. *)

val stats : t -> Tl_par.Cache.stats
(** [entries] counts, on disk, the entry files present at {!open_store}
    plus the keys this handle has put since; [evictions] is always 0. *)

val io_failures : t -> int * int
(** [(degraded_reads, dropped_writes)]: transient I/O failures that
    exhausted their retries and were absorbed (miss / dropped put)
    rather than raised, counted since {!open_store}. *)

val digest_hex : string -> string
(** MD5 hex digest — the entry-file naming function, exposed so tests
    and gates can locate (and deliberately corrupt) specific entries. *)
