(* Shared plumbing: the run record, scratch directories, host facts. *)

open Tensorlib

(* Pool width every workload runs at.  One worker keeps run-to-run
   spread low on a small shared host and lets spans nest on one domain,
   so per-layer self times add up to the wall time exactly. *)
let width = 1

(* What one untraced run measured. *)
type run = {
  setup : float list;  (** seconds, one sample per set-up *)
  latencies : float list;  (** seconds, one per timed operation *)
  work : float;  (** work units completed during [busy] *)
  busy : float;  (** seconds spent on the timed operations *)
  model_cycles : float;  (** modelled (simulated) cycles; deterministic *)
  attempted : int;
  failed : int;
  rss_mb : float;
  scoped : (string * float) list;
      (** workload-scoped metrics named as in the glossary *)
  facts : (string * Json.t) list;  (** digests and counts for [--out] *)
}

(* What one traced run measured: the same unit of work run once with
   spans off and once with spans on. *)
type traced = {
  wall_off : float;
  wall_on : float;
  t_attempted : int;
  t_failed : int;
  t_scoped : (string * float) list;
  t_facts : (string * Json.t) list;
}

let workloads = [ "sweep"; "generate"; "campaign"; "serve" ]

let usage () =
  prerr_endline
    "usage: main.exe --workload sweep|generate|campaign|serve --seed N --seconds S \
     --trace 0|1 [--out FILE] [--trace-file FILE]\n\
    \       main.exe steady --workload W [--runs K] [--sets 1|2] [--seed N]";
  exit 2

(* "--key value" pairs *)
let parse_args args =
  let tbl = Hashtbl.create 8 in
  let rec go = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      Hashtbl.replace tbl (String.sub k 2 (String.length k - 2)) v;
      go rest
    | [] -> ()
    | _ -> usage ()
  in
  go args;
  tbl

let int_arg tbl k ~default =
  match Hashtbl.find_opt tbl k with
  | None -> default
  | Some v -> ( match int_of_string_opt v with Some n -> n | None -> usage ())

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* A stopwatch: [f ()] and its seconds.  Untraced runs report host-speed
   scaled times ({!Calib}); traced runs compare plain wall times. *)
type clock = { timed : 'a. (unit -> 'a) -> 'a * float }

let wall = { timed = time }
let scaled = { timed = Calib.time }

let md5 s = Digest.to_hex (Digest.string s)

(* All files the benchmark writes live under this directory of the
   checkout (ignored by git). *)
let scratch_root = ".perfbench"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
  end

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | _ -> Sys.remove path

let tmp_counter = ref 0

(* A fresh, empty directory; [f] runs with it and it is removed after. *)
let with_tmp_dir f =
  incr tmp_counter;
  let d =
    Filename.concat scratch_root
      (Printf.sprintf "tmp/%d-%d" (Unix.getpid ()) !tmp_counter)
  in
  rm_rf d;
  mkdir_p d;
  Fun.protect ~finally:(fun () -> rm_rf d) (fun () -> f d)

(* Peak resident set of a process in MB ([VmHWM]); [None] where /proc is
   not available. *)
let peak_rss_mb ?(pid = "self") () =
  match open_in (Printf.sprintf "/proc/%s/status" pid) with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec go () =
          match input_line ic with
          | exception End_of_file -> None
          | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb ->
                Some (float_of_int kb /. 1024.))
          | _ -> go ()
        in
        go ())

let self_rss_mb () =
  match peak_rss_mb () with
  | Some mb -> mb
  | None ->
    (* no /proc: the peak major heap is the closest in-process figure *)
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.

(* Commit of the checkout when it is a git work tree, read from .git
   without running git; "unknown" in an exported tree. *)
let git_commit () =
  let read f =
    match open_in f with
    | exception Sys_error _ -> None
    | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> try Some (String.trim (input_line ic)) with End_of_file -> None)
  in
  match read ".git/HEAD" with
  | Some head when String.length head > 5 && String.sub head 0 5 = "ref: " -> (
    let ref_ = String.sub head 5 (String.length head - 5) in
    match read (Filename.concat ".git" ref_) with
    | Some c -> c
    | None -> "unknown")
  | Some c -> c
  | None -> "unknown"

let environment () =
  [ ("pool_width", Json.Num (float_of_int width));
    ("nproc", Json.Num (float_of_int (Domain.recommended_domain_count ())));
    ("ocaml", Json.Str Sys.ocaml_version);
    ("commit", Json.Str (git_commit ())) ]

(* Golden-checked tape simulation of an accelerator on [env] (its
   generating data when omitted): translation and run are separate
   spans, as in the generate workload. *)
let tape_run ?env (acc : Accel.t) =
  let sim =
    Spans.span "sim.translate" (fun () -> Sim.create ~backend:`Tape acc.Accel.circuit)
  in
  Spans.span "sim.run" (fun () ->
      Option.iter (Accel.load_env acc sim) env;
      let cycles = Accel.planned_cycles acc in
      Sim.cycles sim cycles;
      Spans.count "sim.cycles" cycles;
      Accel.check_done acc sim;
      Accel.read_output acc sim)
