(* The request path of [tensorlib serve]: one JSON request line in, one
   answer out (the requests are listed in serve.mli). *)

open Tl_ir
open Tl_templates
open Tl_store
open Tl_resil
open Tl_dse
module Perf = Tl_perf.Perf_model

(* The standing programmable array: its netlist, the one simulator every
   program request runs on, and what [Compile.find_design] decided for
   each statement served: the accepted design's name, its program and
   the program's document, rendered once; or every candidate's
   rejection.  The key is the full statement fingerprint, because a
   program document carries the request's own statement and tensor
   names.  A compile cut short by the budget stores nothing. *)
type standing = {
  target : Accel.t;
  sim : Tl_hw.Sim.t;
  compiled :
    ( string * Layout.program * string,
      (string * Tl_compile.Compile.error) list )
    result
    Tl_par.Cache.t;
}

type t = {
  store : Store.t;
  limit : int option;
  deadline_ms : int option;
  standing : standing option;
}

type answer = { ok : bool; write : out_channel -> unit }

(* Keys come from client text, so the cache is bounded and starts over
   when full.  The envelope caps an entry: on the 4x4 GEMM target with
   headroom 16 (k <= 64) a program takes at most 37 KiB and its text
   17 KiB, so a full cache holds about 3.3 MiB. *)
let compile_capacity = 64

let create ?limit ?deadline_ms ?target store =
  let stand target =
    { target;
      sim = Tl_hw.Sim.create target.Accel.circuit;
      compiled =
        Tl_par.Cache.create ~capacity:compile_capacity ~name:"serve.compile"
          () }
  in
  { store; limit; deadline_ms; standing = Option.map stand target }

let compile_cache t =
  match t.standing with
  | None -> (0, 0)
  | Some { compiled; _ } ->
    let st = Tl_par.Cache.stats compiled in
    (st.Tl_par.Cache.hits, st.Tl_par.Cache.misses)

(* The members [id] and [ok], then [members], then for an accepted einsum
   its program document's stored text as the last member, "program". *)
let answer ?program id ok members =
  let members = ("id", id) :: ("ok", Json.Bool ok) :: members in
  { ok;
    write =
      (fun oc ->
        match program with
        | None -> output_string oc (Json.to_string (Json.Obj members))
        | Some text -> Json.output_with_text oc members ("program", text)) }

let fail id msg = answer id false [ ("error", Json.Str msg) ]
let refuse msg = fail Json.Null msg
let int n = Json.Num (float_of_int n)

(* A request member that is present but not a string, named *)
let not_a_string field =
  let example =
    match field with
    | "extents" -> "m=64,n=64,k=64"
    | "network" -> "tiny"
    | _ -> "C[m,n] += A[m,k] * B[n,k]"
  in
  failwith (Printf.sprintf "%S must be a string such as %S" field example)

(* The statement of an "expr" or "einsum" request.  A malformed formula
   is the client's error, answered "bad request: ..."; a malformed
   extent binding names the binding. *)
let stmt_of_request req ~field =
  let formula = Option.get (Json.mem_string req field) in
  let extents =
    match Json.member "extents" req with
    | None -> failwith (Printf.sprintf "%S requires \"extents\"" field)
    | Some (Json.Str s) -> Parse.extents s
    | Some _ -> not_a_string "extents"
  in
  try Parse.stmt formula ~extents
  with Parse.Parse_error msg -> failwith ("bad request: " ^ msg)

(* Compile the einsum to a descriptor program (or take the outcome a
   request with the same statement left), load and run it on the one
   simulator, verify it against the golden executor, and answer with the
   program document itself.  The budget is polled between stages and
   between compile candidates. *)
let program ~budget { target; sim; compiled } id req =
  let stmt = stmt_of_request req ~field:"einsum" in
  Budget.check budget;
  let outcome =
    Tl_par.Cache.find_or_add compiled
      (Tl_stt.Signature.stmt_fingerprint stmt)
      (fun () ->
        Result.map
          (fun (design, program) ->
            ( design.Tl_stt.Design.name,
              program,
              Tl_compile.Compile.program_to_json program ))
          (Tl_compile.Compile.find_design ~budget ~target stmt))
  in
  match outcome with
  | Error rejections ->
    let head =
      match rejections with
      | (name, e) :: _ ->
        Printf.sprintf " (%s: %s)" name
          (Tl_compile.Compile.error_to_string e)
      | [] -> ""
    in
    failwith
      (Printf.sprintf
         "no dataflow of %s compiles onto the %s target; %d candidates \
          rejected%s"
         stmt.Stmt.name target.Accel.design.Tl_stt.Design.name
         (List.length rejections) head)
  | Ok (design, program, doc) ->
    Budget.check budget;
    let env = Exec.alloc_inputs stmt in
    let golden = Exec.run stmt env in
    let got = Accel.execute_program ~sim target program env in
    let verified = Dense.equal got golden in
    if not verified then
      failwith "golden verification of the programmed run failed";
    Budget.check budget;
    let est =
      Perf.estimate_program ~rows:target.Accel.rows ~cols:target.Accel.cols
        program
    in
    answer ~program:doc id true
      [ ("design", Json.Str design);
        ("verified", Json.Bool verified);
        ("cycles", int est.Perf.pe_cycles);
        ("macs", int est.Perf.pe_macs);
        ("program_words", int est.Perf.pe_program_words) ]

(* Sweep a network, or one "expr" statement as the network "adhoc",
   through the store; a sweep the budget cut short answers "deadline". *)
let sweep t ~budget id req =
  let name, layers =
    match (Json.mem_string req "network", Json.mem_string req "expr") with
    | Some name, _ -> (name, Network.find name)
    | None, Some _ ->
      let stmt = stmt_of_request req ~field:"expr" in
      ("adhoc", [ (stmt.Stmt.name, stmt) ])
    | None, None -> (
      match
        List.find_opt
          (fun f -> Json.member f req <> None)
          [ "einsum"; "network"; "expr" ]
      with
      | Some field -> not_a_string field
      | None -> failwith "request needs \"network\", \"expr\" or \"einsum\"")
  in
  let before = Store.stats t.store in
  let r =
    Network.sweep ?per_shape_limit:t.limit ~budget ~store:t.store ~name
      layers
  in
  if not r.Network.r_complete then failwith "deadline";
  let after = Store.stats t.store in
  let hits = after.Tl_par.Cache.hits - before.Tl_par.Cache.hits in
  let misses = after.Tl_par.Cache.misses - before.Tl_par.Cache.misses in
  answer id true
    [ ("report", Network.to_json r);
      ("store_hits", int hits);
      ("store_misses", int misses);
      ("store_hit_rate",
       Json.Num
         (if hits + misses = 0 then 1.
          else float_of_int hits /. float_of_int (hits + misses))) ]

let handle t line =
  (* a fresh budget per request: one slow request degrades its own
     answer, never the server or the requests behind it *)
  let budget =
    match t.deadline_ms with
    | None -> Budget.unlimited
    | Some ms ->
      Budget.of_seconds ~label:"serve-request" (float_of_int ms /. 1000.)
  in
  (* last-resort containment: an unanticipated exception becomes a
     structured answer, never a dead server *)
  try
    match Json.parse line with
    | Error msg -> refuse ("bad request: " ^ msg)
    | Ok req -> (
      let id = Option.value (Json.member "id" req) ~default:Json.Null in
      try
        match (Json.mem_string req "einsum", t.standing) with
        | Some _, Some standing -> program ~budget standing id req
        | Some _, None ->
          failwith
            "server started without --accel-workload; \"einsum\" requests \
             unavailable"
        | None, _ -> sweep t ~budget id req
      with
      | Failure msg | Parse.Parse_error msg | Tl_stt.Reuse.Overflow msg ->
        fail id msg
      | Budget.Expired _ -> fail id "deadline")
  with e -> refuse ("internal: " ^ Printexc.to_string e)
