(* Persistent, content-addressed design store.

   Entries are keyed by an arbitrary string (in practice: a config
   fingerprint joined with a D4-canonical statement signature).  The key
   is hashed to an MD5 hex digest, and the entry lives in a single file

     <root>/entries/<digest>

   with the layout

     tlstore/1 <payload_md5> <payload_len> <key_len>\n
     <key>\n
     <payload>\n

   The header carries enough redundancy that a truncated, corrupted or
   half-written file is detected on load and treated as a miss — the
   store never crashes on bad bytes and never returns a payload that
   doesn't verify.  Writes go through a tempfile in <root>/tmp followed
   by [Sys.rename], which is atomic on POSIX, so concurrent writers of
   the same key can only ever race complete files into place.

   The entry files are the store's only record: [find] opens the one
   file a key names, and the [entries] count is a scan of entries/ at
   [open_store] plus the keys this handle adds, so handles sharing a
   root (other processes included) see each other's entries.

   A handle's counters are its own ([stats]); it joins no process-wide
   registry, so a dropped handle is garbage like any other value.  A
   root whose directories cannot be made is a [Sys_error] naming it. *)

type t = {
  root : string option; (* None = in-memory only *)
  mem : (string, string) Hashtbl.t; (* key -> payload (in-memory mode) *)
  known : (string, unit) Hashtbl.t; (* entries/ at open + own puts (disk) *)
  lock : Mutex.t;
  hits : int Atomic.t;
  misses : int Atomic.t;
  tmp_ctr : int Atomic.t;
  retry : Tl_resil.Retry.policy;
  degraded_reads : int Atomic.t; (* reads that exhausted their retries *)
  dropped_writes : int Atomic.t; (* puts that exhausted their retries *)
}

let magic = "tlstore/1"

let digest_hex s = Digest.to_hex (Digest.string s)

let entries_dir root = Filename.concat root "entries"
let tmp_dir root = Filename.concat root "tmp"
let entry_path root key = Filename.concat (entries_dir root) (digest_hex key)

let mkdir_p dir =
  let rec go d =
    if d <> "" && d <> "/" && d <> "." && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Unix.mkdir d 0o755
      with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go dir

let read_file path =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let n = in_channel_length ic in
        Some (really_input_string ic n))
  with Sys_error _ | End_of_file -> None

(* Atomic write: tempfile in <root>/tmp, then rename into place.  The
   temp name carries pid + a per-store counter so concurrent writers
   never collide on the temp path either.  The tempfile is fsynced
   before the rename so a crash at any point can only ever leave the old
   state (or nothing) visible — never an entry whose bytes were still in
   the page cache; renamed-but-torn entries are then impossible, not
   merely detectable.  The "store.write" chaos probe sits where the
   write syscall would tear: the bytes it returns are the bytes that
   reach the disk. *)
let write_atomic st root ~dest content =
  let content = Tl_resil.Chaos.mangle ~site:"store.write" content in
  let tmp =
    Filename.concat (tmp_dir root)
      (Printf.sprintf "%s.%d.%d"
         (Filename.basename dest)
         (Unix.getpid ())
         (Atomic.fetch_and_add st.tmp_ctr 1))
  in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc content;
      flush oc;
      Unix.fsync (Unix.descr_of_out_channel oc));
  Sys.rename tmp dest

let encode_entry ~key ~payload =
  Printf.sprintf "%s %s %d %d\n%s\n%s\n" magic
    (digest_hex payload)
    (String.length payload)
    (String.length key)
    key payload

(* Decode and verify one entry file.  Any structural or digest mismatch
   returns [None]: the caller treats it as a miss. *)
let decode_entry ~key content =
  match String.index_opt content '\n' with
  | None -> None
  | Some nl -> (
    let header = String.sub content 0 nl in
    match String.split_on_char ' ' header with
    | [ m; payload_md5; payload_len; key_len ] when m = magic -> (
      match (int_of_string_opt payload_len, int_of_string_opt key_len) with
      | Some plen, Some klen
        when plen >= 0 && klen >= 0
             && String.length content = nl + 1 + klen + 1 + plen + 1 ->
        let stored_key = String.sub content (nl + 1) klen in
        let payload = String.sub content (nl + 1 + klen + 1) plen in
        if stored_key = key && digest_hex payload = payload_md5 then
          Some payload
        else None
      | _ -> None)
    | _ -> None)

(* The digests already under entries/ when a handle opens (disk mode
   only); an unreadable directory counts as empty. *)
let scan_entries st root =
  match Sys.readdir (entries_dir root) with
  | names ->
    Array.iter
      (fun name ->
        if String.length name = 32 then Hashtbl.replace st.known name ())
      names
  | exception Sys_error _ -> ()

let stats st =
  {
    Tl_par.Cache.name =
      (match st.root with None -> "store:mem" | Some r -> "store:" ^ r);
    hits = Atomic.get st.hits;
    misses = Atomic.get st.misses;
    entries =
      (match st.root with
      | None -> Hashtbl.length st.mem
      | Some _ -> Hashtbl.length st.known);
    evictions = 0;
  }

let open_store ?(retry = Tl_resil.Retry.default) ?root () =
  let st =
    {
      root;
      mem = Hashtbl.create 64;
      known = Hashtbl.create 256;
      lock = Mutex.create ();
      hits = Atomic.make 0;
      misses = Atomic.make 0;
      tmp_ctr = Atomic.make 0;
      retry;
      degraded_reads = Atomic.make 0;
      dropped_writes = Atomic.make 0;
    }
  in
  (match root with
  | None -> ()
  | Some root ->
    let refuse why =
      raise (Sys_error (Printf.sprintf "store root %S: %s" root why))
    in
    List.iter
      (fun dir ->
        (try mkdir_p dir
         with Unix.Unix_error (e, _, _) -> refuse (Unix.error_message e));
        if not (Sys.is_directory dir) then
          refuse (Printf.sprintf "%s is not a directory" dir))
      [ entries_dir root; tmp_dir root ];
    scan_entries st root);
  st

let find st key =
  let result =
    match st.root with
    | None ->
      Mutex.lock st.lock;
      let v = Hashtbl.find_opt st.mem key in
      Mutex.unlock st.lock;
      v
    | Some root -> (
      (* no lock needed for the read itself: entry files only ever
         appear complete (rename) and are immutable once present.
         Transient I/O failures (the "store.read" chaos probe, real disk
         weather) are retried with seeded backoff; a read that exhausts
         its retries degrades to a miss — the caller recomputes. *)
      let attempt () =
        Tl_resil.Chaos.probe ~site:"store.read" ();
        read_file (entry_path root key)
      in
      match
        Tl_resil.Retry.with_retry_opt ~policy:st.retry ~label:"store.find"
          attempt
      with
      | None ->
        Atomic.incr st.degraded_reads;
        None
      | Some None -> None
      | Some (Some content) -> decode_entry ~key content)
  in
  (match result with
  | Some _ -> Atomic.incr st.hits
  | None -> Atomic.incr st.misses);
  result

let put st key payload =
  match st.root with
  | None ->
    Mutex.lock st.lock;
    if not (Hashtbl.mem st.mem key) then Hashtbl.replace st.mem key payload;
    Mutex.unlock st.lock
  | Some root -> (
    let dest = entry_path root key in
    (* the entry write is the retried unit: rewriting the same complete
       entry is idempotent.  A put that exhausts its retries is dropped —
       the store is a cache, so the only consequence is a future miss. *)
    match
      Tl_resil.Retry.with_retry_opt ~policy:st.retry ~label:"store.put"
        (fun () -> write_atomic st root ~dest (encode_entry ~key ~payload))
    with
    | Some () ->
      Mutex.lock st.lock;
      Hashtbl.replace st.known (Filename.basename dest) ();
      Mutex.unlock st.lock
    | None -> Atomic.incr st.dropped_writes)

let io_failures st =
  (Atomic.get st.degraded_reads, Atomic.get st.dropped_writes)
