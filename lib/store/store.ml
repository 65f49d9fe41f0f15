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

   An index file <root>/index.tsv (one digest per line) gives O(1)
   warm-open: it is loaded into a hash table at [open_store] and
   rewritten atomically whenever it grows.  A missing or stale index is
   never fatal — [find] falls back to probing the entry file directly
   (which also picks up entries written by other processes), and the
   index is rebuilt by scanning entries/ when absent.

   A store registers its stats/clear hooks into [Tl_par.Cache]'s
   registry, so `bench` and the observability surface report disk hits
   and misses alongside the in-memory memo tables. *)

type t = {
  root : string option; (* None = in-memory only *)
  mem : (string, string) Hashtbl.t; (* key -> payload (in-memory mode) *)
  index : (string, unit) Hashtbl.t; (* digest -> present (disk mode) *)
  lock : Mutex.t;
  hits : int Atomic.t;
  misses : int Atomic.t;
  evictions : int Atomic.t;
  max_entries : int option;
  tmp_ctr : int Atomic.t;
  retry : Tl_resil.Retry.policy;
  degraded_reads : int Atomic.t; (* reads that exhausted their retries *)
  dropped_writes : int Atomic.t; (* puts that exhausted their retries *)
}

let magic = "tlstore/1"

let digest_hex s = Digest.to_hex (Digest.string s)

let entries_dir root = Filename.concat root "entries"
let tmp_dir root = Filename.concat root "tmp"
let index_file root = Filename.concat root "index.tsv"
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

(* ------------------------------------------------------------------ *)
(* Index maintenance (disk mode only). *)

let load_index st root =
  match read_file (index_file root) with
  | Some content ->
    String.split_on_char '\n' content
    |> List.iter (fun line ->
           let line = String.trim line in
           if String.length line = 32 then Hashtbl.replace st.index line ())
  | None -> (
    (* no index: rebuild by scanning entries/ *)
    match Sys.readdir (entries_dir root) with
    | names ->
      Array.iter
        (fun name ->
          if String.length name = 32 then Hashtbl.replace st.index name ())
        names
    | exception Sys_error _ -> ())

let save_index st root =
  let buf = Buffer.create (Hashtbl.length st.index * 33) in
  Hashtbl.iter
    (fun digest () ->
      Buffer.add_string buf digest;
      Buffer.add_char buf '\n')
    st.index;
  write_atomic st root ~dest:(index_file root) (Buffer.contents buf)

(* ------------------------------------------------------------------ *)
(* Eviction: drop oldest-mtime entries until back under the cap.  Entries
   written within one timestamp tick tie on mtime, so [keep], the entry
   being put, is never a candidate: it is the newest. *)

let evict_locked st root cap ~keep =
  let entries =
    Hashtbl.fold
      (fun digest () acc ->
        if digest = keep then acc
        else
          let path = Filename.concat (entries_dir root) digest in
          match Unix.stat path with
          | { Unix.st_mtime; _ } -> (st_mtime, digest) :: acc
          | exception Unix.Unix_error _ ->
            (* file vanished: just forget it *)
            Hashtbl.remove st.index digest;
            acc)
      st.index []
  in
  let n = List.length entries + 1 (* [keep] *) in
  if n > cap then begin
    let by_age = List.sort compare entries in
    let doomed = ref (n - cap) in
    List.iter
      (fun (_, digest) ->
        if !doomed > 0 then begin
          decr doomed;
          (try Sys.remove (Filename.concat (entries_dir root) digest)
           with Sys_error _ -> ());
          Hashtbl.remove st.index digest;
          Atomic.incr st.evictions
        end)
      by_age;
    save_index st root
  end

(* ------------------------------------------------------------------ *)

let open_store ?max_entries ?(retry = Tl_resil.Retry.default) ?root () =
  let st =
    {
      root;
      mem = Hashtbl.create 64;
      index = Hashtbl.create 256;
      lock = Mutex.create ();
      hits = Atomic.make 0;
      misses = Atomic.make 0;
      evictions = Atomic.make 0;
      max_entries;
      tmp_ctr = Atomic.make 0;
      retry;
      degraded_reads = Atomic.make 0;
      dropped_writes = Atomic.make 0;
    }
  in
  (match root with
  | None -> ()
  | Some root ->
    mkdir_p (entries_dir root);
    mkdir_p (tmp_dir root);
    load_index st root);
  let label =
    match root with None -> "store:mem" | Some r -> "store:" ^ r
  in
  Tl_par.Cache.register
    ~stats:(fun () ->
      {
        Tl_par.Cache.name = label;
        hits = Atomic.get st.hits;
        misses = Atomic.get st.misses;
        entries =
          (match st.root with
          | None -> Hashtbl.length st.mem
          | Some _ -> Hashtbl.length st.index);
        evictions = Atomic.get st.evictions;
      })
    ~clear:(fun () ->
      (* reset counters, never disk contents *)
      Atomic.set st.hits 0;
      Atomic.set st.misses 0;
      Atomic.set st.evictions 0);
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
    (* retried as one idempotent unit (entry write + index update): a
       failure between the two just rewrites the same complete entry.
       A put that exhausts its retries is dropped — the store is a
       cache, so the only consequence is a future miss. *)
    let attempt () =
      write_atomic st root ~dest (encode_entry ~key ~payload);
      Mutex.lock st.lock;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock st.lock)
        (fun () ->
          let digest = Filename.basename dest in
          if not (Hashtbl.mem st.index digest) then begin
            Hashtbl.replace st.index digest ();
            save_index st root
          end;
          match st.max_entries with
          | Some cap when Hashtbl.length st.index > cap ->
            evict_locked st root cap ~keep:digest
          | _ -> ())
    in
    match
      Tl_resil.Retry.with_retry_opt ~policy:st.retry ~label:"store.put"
        attempt
    with
    | Some () -> ()
    | None -> Atomic.incr st.dropped_writes)

let find_or_add st key f =
  match find st key with
  | Some payload -> payload
  | None ->
    let payload = f () in
    put st key payload;
    payload

let stats st =
  let label =
    match st.root with None -> "store:mem" | Some r -> "store:" ^ r
  in
  {
    Tl_par.Cache.name = label;
    hits = Atomic.get st.hits;
    misses = Atomic.get st.misses;
    entries =
      (match st.root with
      | None -> Hashtbl.length st.mem
      | Some _ -> Hashtbl.length st.index);
    evictions = Atomic.get st.evictions;
  }

let io_failures st =
  (Atomic.get st.degraded_reads, Atomic.get st.dropped_writes)
