(* Persistent design store, the whole-network sweep engine, the exact
   perf-result codec, signature-key stability, and the Tl_par cache
   counter exactness the store's stats plumbing relies on. *)

open Tensorlib

(* ---------------- JSON ---------------- *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [ ("id", Json.Num 3.);
        ("name", Json.Str "tab\there \"quoted\" \\ slash");
        ("ok", Json.Bool true);
        ("none", Json.Null);
        ("xs", Json.List [ Json.Num 1.5; Json.Str "x"; Json.Bool false ]) ]
  in
  (match Json.parse (Json.to_string v) with
   | Ok v' -> Alcotest.(check bool) "roundtrip" true (v = v')
   | Error m -> Alcotest.fail m);
  (* rendering never emits newlines: one request/response per line *)
  Alcotest.(check bool) "single line" false
    (String.contains (Json.to_string v) '\n')

let test_json_errors () =
  let bad s =
    match Json.parse s with Ok _ -> false | Error _ -> true
  in
  List.iter
    (fun s -> Alcotest.(check bool) ("rejects " ^ s) true (bad s))
    [ "{"; "[1,"; "\"unterminated"; "{\"a\" 1}"; "1 2"; "nul"; "" ];
  match Json.parse "  {\"a\": [1, 2], \"b\": \"x\"}  " with
  | Error m -> Alcotest.fail m
  | Ok j ->
    Alcotest.(check (option string)) "member b" (Some "x")
      (Json.mem_string j "b");
    Alcotest.(check (option int)) "missing" None (Json.mem_int j "c")

(* the renderer before integers went through [string_of_int] and plain
   strings were appended whole: every byte must stay the same, since
   store entries, digests and program documents are built from it *)
let reference_render v =
  let escape s =
    let buf = Buffer.create (String.length s + 2) in
    String.iter
      (fun ch ->
        match ch with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf
  in
  let number f =
    if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
    else
      let s = Printf.sprintf "%.17g" f in
      if Float.is_finite f then s else "null"
  in
  let rec go = function
    | Json.Null -> "null"
    | Json.Bool b -> string_of_bool b
    | Json.Num f -> number f
    | Json.Str s -> "\"" ^ escape s ^ "\""
    | Json.List xs -> "[" ^ String.concat ", " (List.map go xs) ^ "]"
    | Json.Obj kvs ->
      "{"
      ^ String.concat ", "
          (List.map (fun (k, v) -> "\"" ^ escape k ^ "\": " ^ go v) kvs)
      ^ "}"
  in
  go v

let test_json_render_bytes () =
  let edge = 1e15 -. 1. in
  let nums =
    [ 0.; -0.; 1.; -1.; 42.; -4096.; 2147483648.; -1099511627776.; edge;
      -.edge; 1e15; -1e15; 1.5; -0.25; 1e300; Float.nan; Float.infinity;
      Float.neg_infinity ]
    @ List.init 200 (fun i -> float_of_int ((i * 7919) - 500000))
  in
  let strs =
    [ ""; "plain"; "MNK-SST"; "tab\there"; "quote\"in"; "back\\slash";
      "\x01ctrl\x1f"; "line\nbreak\r"; "caf\xc3\xa9"; "grid 4x4\ntensor 0" ]
  in
  List.iter
    (fun f ->
      Alcotest.(check string) (Printf.sprintf "number %h" f)
        (reference_render (Json.Num f)) (Json.to_string (Json.Num f)))
    nums;
  List.iter
    (fun s ->
      let v = Json.Obj [ (s, Json.Str s) ] in
      Alcotest.(check string) (Printf.sprintf "string %S" s)
        (reference_render v) (Json.to_string v))
    strs;
  let doc =
    Json.Obj
      [ ("xs", Json.List (List.map (fun f -> Json.Num f) nums));
        ("ss", Json.List (List.map (fun s -> Json.Str s) strs)) ]
  in
  Alcotest.(check string) "whole document" (reference_render doc)
    (Json.to_string doc);
  (* lists and objects of zero, one and several members, nested *)
  let one = Json.Num 7. and s = Json.Str "x" in
  List.iter
    (fun v ->
      Alcotest.(check string) (reference_render v) (reference_render v)
        (Json.to_string v))
    [ Json.List []; Json.Obj []; Json.List [ one ]; Json.Obj [ ("a", one) ];
      Json.List [ Json.List [] ]; Json.List [ Json.Obj [] ];
      Json.List [ Json.List []; Json.List [ one ]; Json.List [ one; s ] ];
      Json.Obj [ ("e", Json.List []); ("o", Json.Obj []) ];
      Json.Obj
        [ ("xs",
           Json.List [ Json.Obj [ ("k", Json.List [ one ]) ]; Json.Null ]);
          ("b", Json.Bool false) ];
      Json.List [ Json.List [ Json.List [ Json.List [ one ] ] ]; one ] ];
  (* an object whose last member is text rendered earlier: after zero,
     one and two members, under a key that needs escaping *)
  List.iter
    (fun kvs ->
      let v = Json.Obj (kvs @ [ ("t\"ail", doc) ]) in
      let path = Filename.temp_file "tljson" ".txt" in
      let oc = open_out_bin path in
      Json.output_with_text oc kvs ("t\"ail", Json.to_string doc);
      close_out oc;
      let ic = open_in_bin path in
      let written = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Sys.remove path;
      Alcotest.(check string) "last member given as text"
        (reference_render v) written)
    [ []; [ ("a", one) ]; [ ("e", Json.List []); ("o", Json.Obj [ ("k", s) ]) ] ]

(* ---------------- store basics ---------------- *)

let test_store_memory () =
  let st = Store.open_store () in
  Alcotest.(check (option string)) "miss" None (Store.find st "k1");
  Store.put st "k1" "v1";
  Alcotest.(check (option string)) "hit" (Some "v1") (Store.find st "k1");
  let s = Store.stats st in
  Alcotest.(check int) "hits" 1 s.Par.Cache.hits;
  Alcotest.(check int) "misses" 1 s.Par.Cache.misses;
  Alcotest.(check int) "entries" 1 s.Par.Cache.entries

let test_store_persistence () =
  let root = Temp_dir.make "tlstore" in
  let st = Store.open_store ~root () in
  Store.put st "key one" "payload\nwith\nnewlines\tand tabs";
  Store.put st "key two" "";
  Alcotest.(check (option string)) "same process"
    (Some "payload\nwith\nnewlines\tand tabs")
    (Store.find st "key one");
  (* a second store over the same root sees the entries *)
  let st2 = Store.open_store ~root () in
  Alcotest.(check (option string)) "reopened"
    (Some "payload\nwith\nnewlines\tand tabs")
    (Store.find st2 "key one");
  Alcotest.(check (option string)) "empty payload ok" (Some "")
    (Store.find st2 "key two");
  (* cross-process visibility: an entry written by another store instance
     after this one opened is found *)
  let st3 = Store.open_store ~root () in
  Store.put st3 "key three" "v3";
  Alcotest.(check (option string)) "cross-instance" (Some "v3")
    (Store.find st2 "key three")

let test_store_corruption () =
  let root = Temp_dir.make "tlstore" in
  let st = Store.open_store ~root () in
  Store.put st "victim" "some serialized payload";
  let path =
    Filename.concat
      (Filename.concat root "entries")
      (Store.digest_hex "victim")
  in
  Alcotest.(check bool) "entry file exists" true (Sys.file_exists path);
  let original =
    let ic = open_in_bin path in
    let c = really_input_string ic (in_channel_length ic) in
    close_in ic;
    c
  in
  let write content =
    let oc = open_out_bin path in
    output_string oc content;
    close_out oc
  in
  (* truncation, payload corruption, garbage, empty: all degrade to a
     miss, never an exception *)
  write (String.sub original 0 (String.length original / 2));
  Alcotest.(check (option string)) "truncated" None (Store.find st "victim");
  write (String.map (fun c -> if c = 'p' then 'q' else c) original);
  Alcotest.(check (option string)) "corrupted" None (Store.find st "victim");
  write "total garbage";
  Alcotest.(check (option string)) "garbage" None (Store.find st "victim");
  write "";
  Alcotest.(check (option string)) "empty" None (Store.find st "victim");
  (* and a re-put heals it *)
  write original;
  Alcotest.(check (option string)) "restored" (Some "some serialized payload")
    (Store.find st "victim")

(* the entry files are the only record: handles sharing a root never
   overwrite each other's count *)
let test_store_shared_root () =
  let root = Temp_dir.make "tlstore" in
  let a = Store.open_store ~root () and b = Store.open_store ~root () in
  Store.put a "from a" "va";
  Store.put b "from b" "vb";
  Alcotest.(check int) "a counts its own put" 1 (Store.stats a).Par.Cache.entries;
  let c = Store.open_store ~root () in
  Alcotest.(check int) "entries" 2 (Store.stats c).Par.Cache.entries;
  Alcotest.(check (option string)) "a's key" (Some "va") (Store.find c "from a");
  Alcotest.(check (option string)) "b's key" (Some "vb") (Store.find c "from b");
  Alcotest.(check (list string)) "only entries/ and tmp/"
    [ "entries"; "tmp" ]
    (List.sort compare (Array.to_list (Sys.readdir root)))

(* A handle's counters are its own: opening stores adds nothing to the
   process-wide cache registry, and a dropped handle is collected. *)
let test_store_handles_unregistered () =
  let root = Temp_dir.make "tlstore" in
  let before = List.length (Par.Cache.all_stats ()) in
  let slot = Weak.create 1 in
  let open_and_drop () =
    let st = Store.open_store ~root () in
    Store.put st "k" "v";
    Weak.set slot 0 (Some st)
  in
  open_and_drop ();
  ignore (Store.open_store ());
  Alcotest.(check int) "registry unchanged" before
    (List.length (Par.Cache.all_stats ()));
  Gc.full_major ();
  Alcotest.(check bool) "dropped handle collected" false (Weak.check slot 0)

let test_store_concurrent_writers () =
  (* many domains hammer the same keys; first-insertion-wins semantics
     and atomic rename mean no crash and no torn payload *)
  let root = Temp_dir.make "tlstore" in
  let st = Store.open_store ~root () in
  let results =
    Par.map ~domains:4 ~label:"store-race"
      (fun i ->
        let key = Printf.sprintf "shared-%d" (i mod 3) in
        match Store.find st key with
        | Some payload -> payload
        | None ->
          let payload = Printf.sprintf "payload-%d" (i mod 3) in
          Store.put st key payload;
          payload)
      (List.init 64 Fun.id)
  in
  List.iteri
    (fun i v ->
      Alcotest.(check string)
        (Printf.sprintf "item %d" i)
        (Printf.sprintf "payload-%d" (i mod 3))
        v)
    results;
  (* every entry on disk verifies *)
  for k = 0 to 2 do
    Alcotest.(check (option string))
      (Printf.sprintf "final shared-%d" k)
      (Some (Printf.sprintf "payload-%d" k))
      (Store.find st (Printf.sprintf "shared-%d" k))
  done

(* ---------------- Tl_par.Cache counter exactness ---------------- *)

let test_cache_counters_parallel () =
  (* hits + misses must equal the exact number of find_or_add calls even
     under a multi-domain pool (counters are atomic), and entries must
     equal the number of distinct keys *)
  let c = Par.Cache.create ~name:"test.counters" () in
  let calls = 200 and distinct = 23 in
  ignore
    (Par.map ~domains:4 ~label:"counter-race"
       (fun i ->
         Par.Cache.find_or_add c
           (Printf.sprintf "key-%d" (i mod distinct))
           (fun () -> i mod distinct))
       (List.init calls Fun.id));
  let s = Par.Cache.stats c in
  Alcotest.(check int) "hits+misses exact" calls
    (s.Par.Cache.hits + s.Par.Cache.misses);
  Alcotest.(check int) "entries = distinct keys" distinct s.Par.Cache.entries;
  Alcotest.(check bool) "misses cover every key" true
    (s.Par.Cache.misses >= distinct);
  Alcotest.(check int) "in-memory caches never evict" 0 s.Par.Cache.evictions

(* a bounded cache never holds more than its capacity: inserting into a
   full one drops every entry first, and values stay those of [f] *)
let test_cache_capacity () =
  let c = Par.Cache.create ~capacity:3 ~name:"test.bounded" () in
  let get i =
    Par.Cache.find_or_add c (Printf.sprintf "key-%d" i) (fun () -> i * i)
  in
  let sizes =
    List.map
      (fun i ->
        Alcotest.(check int) (Printf.sprintf "value of key-%d" i) (i * i)
          (get i);
        (Par.Cache.stats c).Par.Cache.entries)
      [ 0; 1; 2; 3; 4; 0; 4; 5; 6 ]
  in
  Alcotest.(check (list int)) "entries after each call"
    [ 1; 2; 3; 1; 2; 3; 3; 1; 2 ] sizes;
  let s = Par.Cache.stats c in
  Alcotest.(check int) "evictions count dropped entries" 6 s.Par.Cache.evictions;
  Alcotest.(check int) "one hit (key-4 before the second flush)" 1
    s.Par.Cache.hits;
  Par.Cache.clear c;
  Alcotest.(check int) "clear resets evictions" 0
    (Par.Cache.stats c).Par.Cache.evictions

(* ---------------- signature key stability ---------------- *)

let test_signature_stability () =
  (* golden values: these strings are persisted in store entries, so any
     change to them is a format break that must be caught and versioned *)
  Alcotest.(check string) "stmt_fingerprint golden"
    "GEMM{m=4 n=4 k=4 A[,1,0,0;,0,0,1;] B[,0,1,0;,0,0,1;] C[,1,0,0;,0,1,0;]}"
    (Signature.stmt_fingerprint (Workloads.gemm ~m:4 ~n:4 ~k:4));
  Alcotest.(check string) "key_digest golden"
    "900150983cd24fb0d6963f7d28e17f72"
    (Signature.key_digest "abc");
  (* same fingerprint for a rebuilt statement (stability within and, by
     the pure-text construction, across processes) *)
  Alcotest.(check string) "rebuild identical"
    (Signature.stmt_fingerprint (Workloads.conv2d ~k:4 ~c:4 ~y:6 ~x:6 ~p:3 ~q:3))
    (Signature.stmt_fingerprint (Workloads.conv2d ~k:4 ~c:4 ~y:6 ~x:6 ~p:3 ~q:3))

let test_signature_no_collisions () =
  (* distinct statements with identical iteration shapes must not share
     keys: the access matrices (and names) separate them *)
  let fp = Signature.stmt_fingerprint in
  let gemm = Workloads.gemm ~m:8 ~n:8 ~k:8 in
  let bgemv = Workloads.batched_gemv ~m:8 ~n:8 ~k:8 in
  Alcotest.(check bool) "gemm vs batched-gemv" false (fp gemm = fp bgemv);
  let conv = Workloads.conv2d ~k:4 ~c:4 ~y:6 ~x:6 ~p:3 ~q:3 in
  let strided = Workloads.conv2d_strided ~stride:2 ~k:4 ~c:4 ~y:6 ~x:6 ~p:3 ~q:3 in
  Alcotest.(check bool) "conv vs strided" false (fp conv = fp strided);
  let dw = Workloads.depthwise_conv ~k:4 ~y:6 ~x:6 ~p:3 ~q:3 in
  let dw2 = Workloads.depthwise_conv ~k:4 ~y:6 ~x:6 ~p:3 ~q:5 in
  Alcotest.(check bool) "extent change" false (fp dw = fp dw2);
  (* a config, a point cap and an extent each separate store keys *)
  let key = Network.shape_key in
  let c2 = { Perf.default_config with Perf.rows = 8 } in
  Alcotest.(check bool) "config in key" false (key gemm = key ~config:c2 gemm);
  Alcotest.(check bool) "limit in key" false
    (key gemm = key ~per_shape_limit:10 gemm);
  Alcotest.(check bool) "extent in key" false
    (key gemm = key (Workloads.gemm ~m:8 ~n:8 ~k:4))

(* ---------------- perf result codec ---------------- *)

let test_perf_codec_roundtrip () =
  let stmt = Workloads.conv2d ~k:4 ~c:4 ~y:6 ~x:6 ~p:3 ~q:3 in
  let checked = ref 0 in
  List.iter
    (fun (_, d) ->
      match Perf.evaluate d with
      | exception Invalid_argument _ -> ()
      | r -> (
        incr checked;
        match Perf.result_of_string (Perf.result_to_string r) with
        | None -> Alcotest.fail "codec rejected its own output"
        | Some r' ->
          (* structural equality: every float bit-identical *)
          Alcotest.(check bool) "bit-exact roundtrip" true (r = r')))
    (List.filteri (fun i _ -> i < 8) (Search.all_designs stmt));
  Alcotest.(check bool) "checked some" true (!checked >= 4)

let test_perf_codec_rejects () =
  let r = Perf.evaluate (Search.find_design_exn (Workloads.gemm ~m:8 ~n:8 ~k:8) "MNK-SST") in
  let good = Perf.result_to_string r in
  let bad s =
    Alcotest.(check bool) ("rejects " ^ String.sub s 0 (min 20 (String.length s)))
      true
      (Perf.result_of_string s = None)
  in
  bad "";
  bad "tlperf/0\tx";
  bad (String.sub good 0 (String.length good / 2));
  bad (good ^ "\textra-field")

(* ---------------- network sweep ---------------- *)

(* a fast synthetic network: small GEMM spaces, one duplicated shape *)
let fast_net () =
  [ ("a", Workloads.gemm ~m:16 ~n:16 ~k:16);
    ("b", Workloads.gemm ~m:16 ~n:16 ~k:16);
    ("c", Workloads.batched_gemv ~m:4 ~n:8 ~k:8) ]

let test_network_dedup_and_warm () =
  let root = Temp_dir.make "tlstore" in
  let store = Store.open_store ~root () in
  let layers = fast_net () in
  let r1 = Network.sweep ~per_shape_limit:40 ~store ~name:"fast" layers in
  Alcotest.(check int) "layers" 3 (List.length r1.Network.r_layers);
  Alcotest.(check int) "deduped shapes" 2 r1.Network.r_unique_shapes;
  Alcotest.(check int) "all cold" 0 r1.Network.r_hits;
  let la, lb =
    match r1.Network.r_layers with
    | [ a; b; _ ] -> (a, b)
    | _ -> Alcotest.fail "expected 3 layers"
  in
  Alcotest.(check string) "shared key" la.Network.l_key lb.Network.l_key;
  Alcotest.(check bool) "winner exists" true (la.Network.l_best <> None);
  (* warm run from a fresh store handle over the same root: everything
     served from disk, bit-identical *)
  Par.Cache.clear_all ();
  let store2 = Store.open_store ~root () in
  let r2 = Network.sweep ~per_shape_limit:40 ~store:store2 ~name:"fast" layers in
  Alcotest.(check int) "all warm" r2.Network.r_unique_shapes r2.Network.r_hits;
  Alcotest.(check (float 0.0)) "hit rate one" 1.0 r2.Network.r_hit_rate;
  Alcotest.(check string) "digest stable" r1.Network.r_digest r2.Network.r_digest;
  let frontiers (r : Network.report) =
    List.map (fun l -> l.Network.l_frontier) r.Network.r_layers
  in
  Alcotest.(check bool) "frontiers bit-identical" true
    (frontiers r1 = frontiers r2);
  (* the point cap is part of the key: a different cap is a different
     design question, never a false hit *)
  let r3 = Network.sweep ~per_shape_limit:10 ~store:store2 ~name:"fast" layers in
  Alcotest.(check int) "different limit misses" 0 r3.Network.r_hits

let test_network_pool_width_independent () =
  (* identical results whatever the pool width: fresh stores per width,
     digest + totals compared *)
  let layers = fast_net () in
  let run domains =
    let store = Store.open_store ~root:(Temp_dir.make "tlstore") () in
    Par.Cache.clear_all ();
    Network.sweep ~domains ~per_shape_limit:40 ~store ~name:"fast" layers
  in
  let r1 = run 1 and r3 = run 3 in
  Alcotest.(check string) "digest" r1.Network.r_digest r3.Network.r_digest;
  Alcotest.(check bool) "totals bit-identical" true
    ((r1.Network.r_total_cycles, r1.Network.r_total_area,
      r1.Network.r_total_power)
    = (r3.Network.r_total_cycles, r3.Network.r_total_area,
       r3.Network.r_total_power))

let test_network_payload_codec () =
  let pts =
    Network.evaluate_shape ~config:Perf.default_config ~per_shape_limit:12
      (Workloads.gemm ~m:16 ~n:16 ~k:16)
  in
  Alcotest.(check bool) "some points" true (List.length pts > 0);
  let payload = Network.encode_points pts in
  (match Network.decode_points payload with
   | None -> Alcotest.fail "decode of own payload failed"
   | Some pts' -> Alcotest.(check bool) "bit-exact" true (pts = pts'));
  Alcotest.(check bool) "truncated payload rejected" true
    (Network.decode_points (String.sub payload 0 (String.length payload / 2))
    = None);
  Alcotest.(check bool) "garbage rejected" true
    (Network.decode_points "tlnetpts/1 nonsense\n" = None)

(* The payloads of a cold tiny sweep, one per unique shape. *)
let tiny_payloads =
  lazy
    (let store = Store.open_store () in
     let r = Network.sweep ~domains:1 ~store ~name:"tiny" (Network.find "tiny") in
     List.sort_uniq compare
       (List.map
          (fun l -> Option.get (Store.find store l.Network.l_key))
          r.Network.r_layers))

let test_network_decode_reference () =
  let payloads = Lazy.force tiny_payloads in
  Alcotest.(check int) "three shapes" 3 (List.length payloads);
  List.iter
    (fun p ->
      let fast = Network.decode_points p in
      Alcotest.(check bool) "decodes" true (fast <> None);
      Alcotest.(check bool) "bit for bit the line-splitting decoder" true
        (Oracle.points_bits fast = Oracle.points_bits (Oracle.decode_points p)))
    payloads

(* Damaged payloads are refused or read exactly as the reference reads
   them, and never raise: every separator of the smallest payload's first
   point dropped, doubled or preceded by another, then seeded mutations
   of every payload. *)
let test_network_decode_mutations () =
  let payloads = Array.of_list (Lazy.force tiny_payloads) in
  let p =
    Array.fold_left
      (fun a b -> if String.length b < String.length a then b else a)
      payloads.(0) payloads
  in
  let first = String.index p '\n' + 1 in
  for q = first to String.index_from p first '\n' do
    if String.contains "\t\n,=" p.[q] then
      List.iter
        (fun text ->
          let damaged =
            String.sub p 0 q ^ text ^ String.sub p (q + 1) (String.length p - q - 1)
          in
          match Oracle.check_payload damaged with
          | Oracle.Disagree msg ->
            Alcotest.failf "%S in place of %C at %d: %s" text p.[q] q msg
          | Oracle.Answered | Oracle.Rejected -> ())
        (List.map
           (fun sep -> String.make 1 sep ^ String.make 1 p.[q])
           [ '\t'; '\n'; ','; '=' ]
        @ [ ""; String.make 2 p.[q] ])
  done;
  let answered = ref 0 and refused = ref 0 in
  for i = 1 to 1200 do
    let rng = Random.State.make [| 2024; i |] in
    let p = payloads.(Random.State.int rng (Array.length payloads)) in
    match Oracle.check_payload (Oracle.mutate_payload rng p) with
    | Oracle.Answered -> incr answered
    | Oracle.Rejected -> incr refused
    | Oracle.Disagree msg -> Alcotest.failf "mutation %d: %s" i msg
  done;
  Alcotest.(check bool) "some answered" true (!answered > 0);
  Alcotest.(check bool) "some refused" true (!refused > 0)

(* The payload reader's hex floats against [float_of_string] on [%h] of
   random bit patterns, with subnormals, nan payloads and the boundary
   values forced in: as the area (a tab ends it), the power, the
   result's cycles and its last traffic entry (a newline ends it). *)
let test_float_reader () =
  let bits = Int64.bits_of_float in
  let r = (Lazy.force Oracle.payload_pool).(0).Network.p_perf in
  Alcotest.(check bool) "traffic entries to read" true
    (r.Perf.traffic_words <> []);
  let specials =
    [ 0L; Int64.min_int; bits infinity; bits neg_infinity; bits nan;
      bits (-.nan); bits Float.max_float; bits (-.Float.max_float);
      bits Float.min_float; bits (-.Float.min_float); 1L;
      0x800fffffffffffffL; 0x000fffffffffffffL; 0x8000000000000001L ]
  in
  let gen =
    QCheck.Gen.(
      frequency
        [ (2, oneofl specials);
          (2, map (Int64.logand 0x800fffffffffffffL) ui64);
          (1, map (Int64.logor 0x7ff0000000000000L) ui64);
          (5, ui64) ])
  in
  let prop =
    QCheck.Test.make ~name:"payload floats = float_of_string on %h"
      ~count:2000
      (QCheck.make ~print:(Printf.sprintf "%Lx") gen)
      (fun b ->
        let f = Int64.float_of_bits b in
        let want = bits (float_of_string (Printf.sprintf "%h" f)) in
        let traffic_words =
          List.map (fun (name, _) -> (name, f)) r.Perf.traffic_words
        in
        let record =
          Printf.sprintf "%h\t%h\t%s\n" f f
            (Perf.result_to_string
               { r with Perf.cycles = f; traffic_words })
        in
        match Perf.read_records record ~pos:0 with
        | Some [ (area, power, r') ] ->
          bits area = want && bits power = want
          && bits r'.Perf.cycles = want
          && List.for_all (fun (_, w) -> bits w = want) r'.Perf.traffic_words
        | _ -> false)
  in
  QCheck.Test.check_exn ~rand:(Random.State.make [| 2024 |]) prop

let test_network_tables () =
  let nets = Network.networks () in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " present") true
        (List.mem_assoc name nets))
    [ "resnet18"; "bert-base"; "tiny" ];
  Alcotest.(check int) "resnet18 depth" 21
    (List.length (List.assoc "resnet18" nets));
  Alcotest.(check int) "bert-base layers" 8
    (List.length (List.assoc "bert-base" nets));
  (* dedup counts promised in the docs *)
  let unique layers =
    List.sort_uniq compare
      (List.map (fun (_, s) -> Signature.stmt_fingerprint s) layers)
  in
  Alcotest.(check int) "resnet18 unique shapes" 12
    (List.length (unique (List.assoc "resnet18" nets)));
  Alcotest.(check int) "bert unique shapes" 5
    (List.length (unique (List.assoc "bert-base" nets)))

(* ---------------- CLI validation ---------------- *)

(* dune runtest runs the binary from _build/default/test/; a direct
   `dune exec test/test_main.exe` runs from the project root *)
let cli =
  if Sys.file_exists "../bin/tensorlib_cli.exe" then
    "../bin/tensorlib_cli.exe"
  else "_build/default/bin/tensorlib_cli.exe"

let run_cli args =
  let out = Filename.temp_file "tlcli" ".out" in
  let err = Filename.temp_file "tlcli" ".err" in
  let rc =
    Sys.command
      (Printf.sprintf "%s %s > %s 2> %s" (Filename.quote cli) args
         (Filename.quote out) (Filename.quote err))
  in
  let read path =
    let ic = open_in path in
    let c = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Sys.remove path;
    c
  in
  (rc, read out, read err)

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  ln = 0 || go 0

let test_cli_sweep_validation () =
  (* unknown network: exit 2, suggestion on stderr *)
  let rc, _, err = run_cli "sweep --network resnet19 --limit 1" in
  Alcotest.(check int) "unknown network exit" 2 rc;
  Alcotest.(check bool) "suggests resnet18" true
    (contains err "did you mean \"resnet18\"");
  (* --store parent must exist: exit 2 *)
  let rc, _, err =
    run_cli "sweep --network tiny --store /nonexistent-parent/store --limit 1"
  in
  Alcotest.(check int) "bad store parent exit" 2 rc;
  Alcotest.(check bool) "mentions parent" true (contains err "parent");
  (* --store must name a directory: a regular file is one error line
     naming it, in sweep and serve alike *)
  let dir = Temp_dir.make "tlcli" in
  let file = Filename.concat dir "F" in
  close_out (open_out file);
  let error_lines err =
    List.length
      (List.filter
         (fun l -> String.starts_with ~prefix:"tensorlib: error:" l)
         (String.split_on_char '\n' err))
  in
  List.iter
    (fun cmd ->
      let rc, _, err =
        run_cli
          (Printf.sprintf "%s --store %s --limit 1 < /dev/null" cmd
             (Filename.quote file))
      in
      Alcotest.(check int) (cmd ^ " on a file exit") 2 rc;
      Alcotest.(check int) (cmd ^ " on a file: one error line") 1
        (error_lines err);
      Alcotest.(check bool) (cmd ^ " names the file") true (contains err file))
    [ "sweep --network tiny"; "serve" ];
  (* an empty --store is refused before anything lands in the working
     directory *)
  let abs_cli =
    if Filename.is_relative cli then Filename.concat (Sys.getcwd ()) cli
    else cli
  in
  let rc =
    Sys.command
      (Printf.sprintf "cd %s && %s sweep --network tiny --store '' --limit 1 \
                       > /dev/null 2>&1"
         (Filename.quote dir) (Filename.quote abs_cli))
  in
  Alcotest.(check int) "empty store exit" 2 rc;
  Alcotest.(check (list string)) "nothing made in the working directory"
    [ "F" ] (Array.to_list (Sys.readdir dir));
  (* bad limit: exit 2 *)
  let rc, _, _ = run_cli "sweep --network tiny --limit 0" in
  Alcotest.(check int) "bad limit exit" 2 rc

let test_cli_sweep_and_serve () =
  let root = Temp_dir.make "tlstore" in
  let rc, out, _ =
    run_cli
      (Printf.sprintf "sweep --network tiny --store %s --limit 8 --json"
         (Filename.quote root))
  in
  Alcotest.(check int) "sweep exit" 0 rc;
  let j =
    match Json.parse (String.trim out) with
    | Ok j -> j
    | Error m -> Alcotest.fail ("sweep JSON: " ^ m)
  in
  Alcotest.(check (option string)) "schema" (Some "tensorlib-sweep/1")
    (Json.mem_string j "schema");
  Alcotest.(check (option (float 0.0))) "cold misses" (Some 0.)
    (Json.mem_number j "hit_rate");
  let digest = Option.get (Json.mem_string j "digest") in
  (* serve from the warm store: same digest, 100% hits, and a malformed
     line answered without killing the loop *)
  let requests = Filename.temp_file "tlreq" ".jsonl" in
  let oc = open_out requests in
  output_string oc "{\"id\": 1, \"network\": \"tiny\"}\nnot json\n";
  output_string oc "{\"id\": 2, \"network\": \"bogus\"}\n";
  close_out oc;
  let out_file = Filename.temp_file "tlserve" ".out" in
  let rc =
    Sys.command
      (Printf.sprintf "%s serve --store %s --limit 8 < %s > %s 2> /dev/null"
         (Filename.quote cli) (Filename.quote root)
         (Filename.quote requests) (Filename.quote out_file))
  in
  Alcotest.(check int) "serve exit" 0 rc;
  let ic = open_in out_file in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove requests;
  Sys.remove out_file;
  match List.rev !lines with
  | [ l1; l2; l3 ] ->
    (match Json.parse l1 with
     | Error m -> Alcotest.fail m
     | Ok j1 ->
       Alcotest.(check (option (float 0.0))) "request hit rate" (Some 1.)
         (Json.mem_number j1 "store_hit_rate");
       let report = Option.get (Json.member "report" j1) in
       Alcotest.(check (option string)) "served digest matches sweep"
         (Some digest)
         (Json.mem_string report "digest"));
    (match Json.parse l2 with
     | Error m -> Alcotest.fail m
     | Ok j2 ->
       Alcotest.(check (option string)) "parse error reported" None
         (Json.mem_string j2 "report");
       Alcotest.(check bool) "not ok" true
         (Json.member "ok" j2 = Some (Json.Bool false)));
    (match Json.parse l3 with
     | Error m -> Alcotest.fail m
     | Ok j3 ->
       Alcotest.(check bool) "unknown network not ok" true
         (Json.member "ok" j3 = Some (Json.Bool false)))
  | ls ->
    Alcotest.fail
      (Printf.sprintf "expected 3 response lines, got %d" (List.length ls))

let suite =
  [ Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "json errors" `Quick test_json_errors;
    Alcotest.test_case "json render bytes" `Quick test_json_render_bytes;
    Alcotest.test_case "store in-memory" `Quick test_store_memory;
    Alcotest.test_case "store persistence" `Quick test_store_persistence;
    Alcotest.test_case "store corruption -> miss" `Quick test_store_corruption;
    Alcotest.test_case "store handles sharing a root" `Quick
      test_store_shared_root;
    Alcotest.test_case "store handles join no registry" `Quick
      test_store_handles_unregistered;
    Alcotest.test_case "store concurrent writers" `Quick
      test_store_concurrent_writers;
    Alcotest.test_case "cache counters exact under domains" `Quick
      test_cache_counters_parallel;
    Alcotest.test_case "bounded cache starts over when full" `Quick
      test_cache_capacity;
    Alcotest.test_case "signature stability goldens" `Quick
      test_signature_stability;
    Alcotest.test_case "signature no collisions" `Quick
      test_signature_no_collisions;
    Alcotest.test_case "perf codec roundtrip" `Quick test_perf_codec_roundtrip;
    Alcotest.test_case "perf codec rejects" `Quick test_perf_codec_rejects;
    Alcotest.test_case "network dedup + warm store" `Quick
      test_network_dedup_and_warm;
    Alcotest.test_case "network pool-width independent" `Quick
      test_network_pool_width_independent;
    Alcotest.test_case "network payload codec" `Quick
      test_network_payload_codec;
    Alcotest.test_case "network decode = line-splitting reference" `Quick
      test_network_decode_reference;
    Alcotest.test_case "network decode under mutation" `Quick
      test_network_decode_mutations;
    Alcotest.test_case "hex float reader = float_of_string" `Quick
      test_float_reader;
    Alcotest.test_case "network tables" `Quick test_network_tables;
    Alcotest.test_case "cli sweep validation" `Quick test_cli_sweep_validation;
    Alcotest.test_case "cli sweep + serve" `Slow test_cli_sweep_and_serve ]
