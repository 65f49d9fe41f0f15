(* serve: a real [tensorlib serve --accel-workload gemm-small --headroom 16]
   process, a 4x4 MNK-SST programmable target that accepts m = n = 4 and
   k = 1..64.  One client drives it closed-loop over its stdin/stdout
   with a seeded stream of three request classes (see {!Gen}): repeat,
   novel and reject.  Several server processes run per measurement, each
   with its own set-up.

   Chosen because STT search plus compilation are most of each request;
   repeat vs novel lets a compile cache show on one class and not the
   other, and reject exercises the compile layer a third way. *)

open Tensorlib
open Common

let rows = 4
let cols = 4
let headroom = 16
let server_args =
  [ "serve"; "--accel-workload"; "gemm-small"; "--headroom"; string_of_int headroom ]

type answer =
  | Accepted of { design : string; cycles : int; program_md5 : string; verified : bool }
  | Rejected of string  (** the error message *)

(* A typed compile rejection, as opposed to a malformed request or an
   internal error. *)
let typed_rejection msg =
  let p = "no dataflow of " in
  String.length msg >= String.length p && String.sub msg 0 (String.length p) = p

let answer_ok ~expect_ok = function
  | Accepted a -> expect_ok && a.verified
  | Rejected msg -> (not expect_ok) && typed_rejection msg

(* ------------------------------------------------------------------ *)
(* The server process. *)

type server = { pid : int; to_srv : out_channel; from_srv : in_channel }

let cli () =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    "bin/tensorlib_cli.exe"

let start () =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let prog = cli () in
  let pid =
    Unix.create_process prog (Array.of_list (prog :: server_args)) in_r out_w Unix.stderr
  in
  Unix.close in_r;
  Unix.close out_w;
  { pid; to_srv = Unix.out_channel_of_descr in_w; from_srv = Unix.in_channel_of_descr out_r }

(* One request and its response line; [None] once the server has gone. *)
let ask srv line =
  try
    output_string srv.to_srv line;
    output_char srv.to_srv '\n';
    flush srv.to_srv;
    Some (input_line srv.from_srv)
  with End_of_file | Sys_error _ -> None

(* Close the server's stdin (a clean shutdown) and wait for it; returns
   its peak RSS read just before. *)
let stop srv =
  let rss = peak_rss_mb ~pid:(string_of_int srv.pid) () in
  close_out_noerr srv.to_srv;
  ignore (Unix.waitpid [] srv.pid);
  close_in_noerr srv.from_srv;
  rss

let with_server f =
  let srv = start () in
  let rss = ref None in
  let v = Fun.protect ~finally:(fun () -> rss := stop srv) (fun () -> f srv) in
  (v, !rss)

let decode ~id = function
  | None -> Error "no response: the server has exited"
  | Some resp -> (
    match Json.parse resp with
    | Error e -> Error ("unparsable response: " ^ e)
    | Ok j -> (
      match (Json.member "id" j, Json.member "ok" j) with
      | Some i, _ when Json.int_opt i <> Some id -> Error ("response id mismatch: " ^ resp)
      | _, Some (Json.Bool false) ->
        Ok (Rejected (Option.value ~default:"" (Json.mem_string j "error")))
      | _, Some (Json.Bool true) -> (
        match
          ( Json.mem_string j "design",
            Json.mem_int j "cycles",
            Json.member "program" j,
            Json.member "verified" j )
        with
        | Some design, Some cycles, Some program, Some (Json.Bool verified) ->
          Ok
            (Accepted
               { design; cycles; program_md5 = md5 (Json.to_string program); verified })
        | _ -> Error ("incomplete answer: " ^ resp))
      | _ -> Error ("response without ok: " ^ resp)))

(* ------------------------------------------------------------------ *)
(* In-process replica: the public calls [serve_request] makes, in the
   same order, with [Compile.find_design] split into [Search.all_designs]
   and one [Compile.compile] per candidate so search and compile can be
   told apart. *)

let target_stmt = Workloads.gemm ~m:4 ~n:4 ~k:4

(* The standing target exactly as the server builds it at start-up. *)
let make_target () =
  let design =
    Spans.span "stt.search" (fun () -> Search.find_design_exn target_stmt "MNK-SST")
  in
  let target =
    Spans.span "elaborate" (fun () ->
        let l = Layout.build design ~rows ~cols in
        let nat_elems =
          List.fold_left (fun a (i : Layout.input) -> max a i.Layout.in_elems) 1
            l.Layout.l_inputs
        in
        let nat_bank = List.fold_left (fun a (_, cap, _) -> max a cap) 1 l.Layout.l_banks in
        let envelope =
          { Layout.env_cycles = headroom * l.Layout.l_total;
            env_passes = headroom * l.Layout.l_passes;
            env_elems = headroom * nat_elems;
            env_bank = headroom * nat_bank }
        in
        Accel.generate ~rows ~cols ~data_width:16 ~acc_width:32 ~programmable:envelope
          design (Exec.alloc_inputs target_stmt))
  in
  (target, Spans.span "sim.translate" (fun () -> Sim.create target.Accel.circuit))

let extents_of_string s =
  List.map
    (fun kv ->
      match String.split_on_char '=' kv with
      | [ k; v ] -> (String.trim k, int_of_string (String.trim v))
      | _ -> failwith ("bad extent binding: " ^ kv))
    (String.split_on_char ',' s)

let replica ((target : Accel.t), sim) ~id line =
  Spans.with_id (string_of_int id) @@ fun () ->
  Spans.span "serve.request" @@ fun () ->
  let req = match Json.parse line with Ok j -> j | Error e -> failwith e in
  let formula = Option.get (Json.mem_string req "einsum") in
  let extents = extents_of_string (Option.get (Json.mem_string req "extents")) in
  let stmt = Spans.span "parse" (fun () -> Parse.stmt formula ~extents) in
  let cands = Spans.span "stt.search" (fun () -> Search.all_designs stmt) in
  Spans.count "stt.search.designs" (List.length cands);
  let rec first = function
    | [] -> None
    | (_, d) :: rest -> (
      match Spans.span "compile" (fun () -> Compile.compile ~target d) with
      | Ok p ->
        Spans.count "compile.accepted" 1;
        Some (d, p)
      | Error _ -> first rest)
  in
  match first cands with
  | None ->
    Rejected
      (Printf.sprintf "no dataflow of %s compiles onto the %s target"
         stmt.Stmt.name target.Accel.design.Design.name)
  | Some (design, program) ->
    let env, golden =
      Spans.span "verify.golden" (fun () ->
          let env = Exec.alloc_inputs stmt in
          (env, Exec.run stmt env))
    in
    Spans.span "program.load" (fun () -> Accel.load_program target sim program env);
    let got =
      Spans.span "program.run" (fun () ->
          Sim.cycles sim (program.Layout.p_total + 1);
          Accel.check_done target sim;
          Accel.read_program_output target sim program)
    in
    let verified = Spans.span "verify.check" (fun () -> Dense.equal got golden) in
    if not verified then Spans.count "verify.mismatches" 1;
    let est =
      Spans.span "serve.estimate" (fun () ->
          Perf.estimate_program ~rows:target.Accel.rows ~cols:target.Accel.cols program)
    in
    let doc, _response =
      Spans.span "serve.encode" (fun () ->
          let doc = Compile.program_to_json program in
          let program_json = match Json.parse doc with Ok j -> j | Error _ -> Json.Null in
          ( doc,
            Json.to_string
              (Json.Obj
                 [ ("id", Json.Num (float_of_int id));
                   ("ok", Json.Bool true);
                   ("design", Json.Str design.Design.name);
                   ("verified", Json.Bool verified);
                   ("cycles", Json.Num (float_of_int est.Perf.pe_cycles));
                   ("macs", Json.Num (float_of_int est.Perf.pe_macs));
                   ("program_words", Json.Num (float_of_int est.Perf.pe_program_words));
                   ("program", program_json) ]) ))
    in
    Accepted
      { design = design.Design.name;
        cycles = est.Perf.pe_cycles;
        program_md5 = md5 doc;
        verified }

let same a b =
  match (a, b) with
  | Accepted x, Accepted y ->
    x.design = y.design && x.cycles = y.cycles && x.program_md5 = y.program_md5
    && x.verified = y.verified
  | Rejected _, Rejected _ -> true
  | _ -> false

(* ------------------------------------------------------------------ *)

(* Warm-up ids are negative so they never collide with stream ids. *)
let warmup_line i r = (-1 - i, Gen.line ~id:(-1 - i) r)

(* One server process: set up (start + answer the hot set), then the
   timed stream.  Returns the set-up time, the warm-up answers and, per
   stream request, (request, latency, decoded answer). *)
let session ~seed ~proc =
  Calib.sample ();
  let t0 = now () in
  with_server @@ fun srv ->
  let warm =
    List.mapi
      (fun i r ->
        let id, line = warmup_line i r in
        decode ~id (ask srv line))
      Gen.warmup
  in
  let t1 = now () in
  Calib.sample ();
  let setup_s = Calib.scale t0 t1 in
  let stream =
    List.mapi
      (fun id r ->
        let resp, s = scaled.timed (fun () -> ask srv (Gen.line ~id r)) in
        (r, s, decode ~id resp))
      (Gen.serve_stream ~seed ~proc)
  in
  (setup_s, warm, stream)

let warm_cycles warm =
  List.fold_left
    (fun acc a -> match a with Ok (Accepted a) -> acc +. float_of_int a.cycles | _ -> acc)
    0. warm

let class_p50 stream cls =
  let l = List.filter_map (fun ((r : Gen.request), s, _) -> if r.Gen.cls = cls then Some s else None) stream in
  1e3 *. Stats.median l

let class_metrics stream =
  let all = List.map (fun (_, s, _) -> s) stream in
  [ ("serve.p50_ms", 1e3 *. Stats.median all);
    ("serve.p95_ms", 1e3 *. Stats.tail all);
    ("serve.repeat_p50_ms", class_p50 stream Gen.Repeat);
    ("serve.novel_p50_ms", class_p50 stream Gen.Novel);
    ("serve.reject_p50_ms", class_p50 stream Gen.Reject) ]

let report_failure line msg = Printf.eprintf "serve: %s: %s\n%!" line msg

(* Failures in one session: wrong accept or reject, unverified answers,
   undecodable responses, and accepted answers that differ from the
   in-process replica's. *)
let session_failures replica_of (warm, stream) =
  let check (r : Gen.request) = function
    | Error msg -> report_failure (Gen.line ~id:0 r) msg; 1
    | Ok a when not (answer_ok ~expect_ok:(Gen.expect_ok r) a) ->
      report_failure (Gen.line ~id:0 r) "wrong outcome for its class"; 1
    | Ok (Rejected _) -> 0
    | Ok a ->
      if same a (replica_of r) then 0
      else (report_failure (Gen.line ~id:0 r) "answer differs from the replica"; 1)
  in
  List.fold_left2 (fun n r a -> n + check r a) 0 Gen.warmup warm
  + List.fold_left (fun n (r, _, a) -> n + check r a) 0 stream

let min_sessions = 3

let run ~seed ~seconds =
  let t_start = now () in
  let sessions = ref [] and last = ref 0. in
  (* stop before a session that would end past [seconds] *)
  while List.length !sessions < min_sessions || now () -. t_start +. !last < seconds do
    let s, wall = time (fun () -> session ~seed ~proc:(List.length !sessions)) in
    sessions := s :: !sessions;
    last := wall
  done;
  let sessions = List.rev !sessions in
  (* correctness, after the timed part: each distinct accepted shape once
     through the in-process replica *)
  let tgt = make_target () in
  let memo = Hashtbl.create 64 in
  let replica_of (r : Gen.request) =
    let key = (r.Gen.m, r.Gen.n, r.Gen.k) in
    match Hashtbl.find_opt memo key with
    | Some a -> a
    | None ->
      let a = replica tgt ~id:0 (Gen.line ~id:0 r) in
      Hashtbl.add memo key a;
      a
  in
  let stream = List.concat_map (fun (((_, _, s), _)) -> s) sessions in
  let failed =
    List.fold_left
      (fun n (((_, warm, stream), _)) -> n + session_failures replica_of (warm, stream))
      0 sessions
  in
  let cycles = List.map (fun (((_, warm, _), _)) -> warm_cycles warm) sessions in
  let failed = failed + List.length (List.filter (( <> ) (List.hd cycles)) cycles) in
  let lat = List.map (fun (_, s, _) -> s) stream in
  let rss = List.fold_left (fun a (_, r) -> Float.max a (Option.value r ~default:0.)) 0. sessions in
  { setup = List.map (fun (((s, _, _), _)) -> s) sessions;
    latencies = lat;
    work = float_of_int (List.length lat);
    busy = List.fold_left ( +. ) 0. lat;
    model_cycles = List.hd cycles;
    attempted = List.length stream + (List.length sessions * List.length Gen.warmup);
    failed;
    rss_mb = (if rss > 0. then rss else self_rss_mb ());
    scoped = class_metrics stream;
    facts =
      [ ("sessions", Json.Num (float_of_int (List.length sessions)));
        ("requests", Json.Num (float_of_int (List.length lat)));
        ("replica_shapes", Json.Num (float_of_int (Hashtbl.length memo))) ] }

(* One server session, then the same lines through the replica as a
   warm-up, untraced and traced; all must give the same answers. *)
let traced ~seed =
  let (_, warm, stream), _ = session ~seed ~proc:0 in
  let reqs = Gen.warmup @ List.map (fun (r, _, _) -> r) stream in
  let lines =
    List.mapi warmup_line Gen.warmup
    @ List.mapi (fun id (r, _, _) -> (id, Gen.line ~id r)) stream
  in
  let through () =
    let tgt = make_target () in
    List.map (fun (id, line) -> replica tgt ~id line) lines
  in
  ignore (through ());
  let ref_answers, wall_off = time through in
  let answers, wall_on = Spans.traced "serve" through in
  let server_answers = warm @ List.map (fun (_, _, a) -> a) stream in
  let agrees r a b = function
    | Ok s -> answer_ok ~expect_ok:(Gen.expect_ok r) s && same a b && same a s
    | Error _ -> false
  in
  let failed =
    List.length
      (List.filter not
         (List.map2
            (fun (r, (a, b)) s -> agrees r a b s)
            (List.combine reqs (List.combine ref_answers answers))
            server_answers))
  in
  let n = List.length lines in
  { wall_off;
    wall_on;
    t_attempted = n;
    t_failed = failed;
    t_scoped =
      class_metrics stream
      @ [ ("serve.unattributed_ms", 1e3 *. Spans.get_self "serve.request" /. float_of_int n) ];
    t_facts = [ ("requests", Json.Num (float_of_int n)) ] }
