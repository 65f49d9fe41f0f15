(* The repository benchmark.

     main.exe --workload W --seed N --seconds S --trace 0|1
              [--out FILE] [--trace-file FILE]
     main.exe steady --workload W [--runs K] [--sets 1|2] [--seed N]

   A run prints one line per metric and, as its last line, the result
   object {"correct", "attempted", "failed", "metrics"}: every end-to-end
   metric with --trace 0, every per-layer metric with --trace 1.  Any
   failed check makes it exit 1.  Workloads and metrics are described in
   GLOSSARY.md beside this file. *)

open Tensorlib
open Common

let run_workload = function
  | "sweep" -> W_sweep.run
  | "generate" -> W_generate.run
  | "campaign" -> W_campaign.run
  | _ -> W_serve.run

let traced_workload = function
  | "sweep" -> W_sweep.traced
  | "generate" -> W_generate.traced
  | "campaign" -> W_campaign.traced
  | _ -> W_serve.traced

(* ------------------------------------------------------------------ *)
(* Metric tables: (name, unit, value).  Names and units mirror
   BENCHMARK.json. *)

let end_to_end (r : run) =
  [ ("setup_s", "s", Stats.median r.setup);
    ("peak_rss_mb", "MB", r.rss_mb);
    ("throughput_per_s", "1/s", r.work /. r.busy);
    ("p50_ms", "ms", 1e3 *. Stats.median r.latencies);
    ("p95_ms", "ms", 1e3 *. Stats.tail r.latencies);
    ("model_cycles", "cycles", r.model_cycles) ]

(* Spans that group layer calls without being a layer themselves: their
   self time is the unattributed part of the wall time. *)
let grouping_spans workload = [ workload; "serve.request" ]

let workload_scoped =
  [ ("sweep.points_per_s", "1/s"); ("sweep.warm_ms", "ms"); ("sweep.model_cycles", "cycles");
    ("generate.designs_per_s", "1/s"); ("generate.model_cycles", "cycles");
    ("campaign.trials_per_s", "1/s");
    ("serve.p50_ms", "ms"); ("serve.p95_ms", "ms"); ("serve.repeat_p50_ms", "ms");
    ("serve.novel_p50_ms", "ms"); ("serve.reject_p50_ms", "ms") ]

let per_layer workload (t : traced) =
  let self n = ((n ^ ".self_s"), "s", Spans.get_self n) in
  let calls n name = (name, "count", float_of_int (Spans.get_calls n)) in
  let count n unit = (n, unit, Spans.get_count n) in
  let ratio a b = if b > 0. then a /. b else 0. in
  let scoped n = Option.value (List.assoc_opt n t.t_scoped) ~default:0. in
  let wall = t.wall_on in
  let unattributed =
    List.fold_left (fun a n -> a +. Spans.get_self n) 0. (grouping_spans workload)
  in
  let cache_hits = Spans.get_count "perf.cache.hits" in
  [ self "parse"; calls "parse" "parse.calls";
    self "stt.search"; calls "stt.search" "stt.search.calls";
    count "stt.search.designs" "count";
    self "dse.enumerate"; count "dse.points" "count";
    self "perf.evaluate"; calls "perf.evaluate" "perf.evaluate.calls";
    count "perf.evaluate.dropped" "count"; count "perf.tile_nodes" "count";
    count "perf.tile_pruned" "count"; count "perf.tiles_evaluated" "count";
    ("perf.cache.hit_ratio", "ratio",
     ratio cache_hits (cache_hits +. Spans.get_count "perf.cache.misses"));
    self "cost.asic";
    self "store.find"; self "store.put"; self "store.encode"; self "store.decode";
    count "store.hits" "count"; count "store.misses" "count"; count "store.bytes" "bytes";
    self "compile"; calls "compile" "compile.attempts"; count "compile.accepted" "count";
    ("compile.useful_ratio", "ratio",
     ratio (Spans.get_count "compile.accepted") (float_of_int (Spans.get_calls "compile")));
    self "elaborate"; calls "elaborate" "elaborate.attempts";
    count "elaborate.unsupported" "count"; count "elaborate.cells" "count";
    self "verilog"; count "verilog.bytes" "bytes";
    self "sim.translate"; ("sim.packed_fraction", "ratio", scoped "sim.packed_fraction");
    self "sim.run"; count "sim.cycles" "cycles";
    ("sim.ns_per_cycle", "ns",
     1e9 *. ratio (Spans.get_self "sim.run") (Spans.get_count "sim.cycles"));
    self "program.load"; self "program.run";
    self "verify.golden"; self "verify.check"; calls "verify.check" "verify.checks";
    count "verify.mismatches" "count";
    self "fault.plan"; self "fault.run";
    count "fault.trials" "count"; count "fault.masked" "count"; count "fault.sdc" "count";
    count "fault.detected" "count"; count "fault.hang" "count";
    self "serve.estimate"; self "serve.encode";
    ("serve.unattributed_ms", "ms", scoped "serve.unattributed_ms");
    ("par.tasks", "count", float_of_int (Atomic.get Spans.par_tasks));
    ("par.busy_s", "s", !Spans.par_busy_s);
    ("par.utilization", "ratio", ratio !Spans.par_busy_s (float_of_int width *. wall));
    ("unattributed_s", "s", unattributed);
    ("trace.wall_s", "s", wall);
    ("trace.untraced_wall_s", "s", t.wall_off);
    ("trace.overhead_s", "s", wall -. t.wall_off);
    ("trace.overhead_ratio", "ratio", ratio (wall -. t.wall_off) t.wall_off);
    ("trace.spans", "count", float_of_int (Obs.Trace.length !Spans.chrome)) ]
  @ List.map (fun (n, u) -> (n, u, scoped n)) workload_scoped
  @ [ ("error_rate", "ratio", ratio (float_of_int t.t_failed) (float_of_int t.t_attempted)) ]

(* Self times of every layer plus the unattributed part must add up to
   the traced wall time. *)
let attribution_ok metrics (t : traced) =
  let sum =
    List.fold_left
      (fun a (n, _, v) ->
        if Filename.check_suffix n ".self_s" || n = "unattributed_s" then a +. v else a)
      0. metrics
  in
  Float.abs (sum -. t.wall_on) <= 1e-3 *. t.wall_on

let largest_layer metrics =
  List.fold_left
    (fun (bn, bv) (n, _, v) ->
      if Filename.check_suffix n ".self_s" && v > bv then (n, v) else (bn, bv))
    ("none", 0.) metrics

(* ------------------------------------------------------------------ *)

let metrics_json metrics =
  Json.Obj
    (List.map
       (fun (n, u, v) -> (n, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str u) ]))
       metrics)

let print_metrics metrics =
  List.iter (fun (n, u, v) -> Printf.printf "%-28s %14.6g %s\n" n v u) metrics

let write_file path s =
  mkdir_p (Filename.dirname path);
  let oc = open_out path in
  output_string oc s;
  close_out oc

let measure tbl =
  let workload = Option.value (Hashtbl.find_opt tbl "workload") ~default:"" in
  if not (List.mem workload workloads) then usage ();
  let seed = int_arg tbl "seed" ~default:1 in
  let seconds = int_arg tbl "seconds" ~default:10 in
  let trace = int_arg tbl "trace" ~default:0 in
  if seconds < 1 || (trace <> 0 && trace <> 1) then usage ();
  if width > Domain.recommended_domain_count () then
    failwith "pool width exceeds the host's domain count";
  let env = environment () in
  let header =
    [ ("workload", Json.Str workload);
      ("seed", Json.Num (float_of_int seed));
      ("seconds", Json.Num (float_of_int seconds));
      ("trace", Json.Num (float_of_int trace)) ]
  in
  let attempted, failed, metrics, facts =
    if trace = 0 then begin
      let r = run_workload workload ~seed ~seconds:(float_of_int seconds) in
      let facts =
        r.facts
        @ [ ("setup_samples", Json.Num (float_of_int (List.length r.setup)));
            ("latency_samples", Json.Num (float_of_int (List.length r.latencies)));
            ("p95_quantile", Json.Num (Stats.tail_q (List.length r.latencies)));
            ("kernel_samples", Json.Num (float_of_int (List.length !Calib.samples)));
            ("kernel_median_s", Json.Num (Calib.median_kernel_s ()));
            ("scoped",
             metrics_json
               (List.map
                  (fun (n, v) ->
                    (n, Option.value (List.assoc_opt n workload_scoped) ~default:"", v))
                  r.scoped)) ]
      in
      (r.attempted, r.failed, end_to_end r, facts)
    end
    else begin
      let t = traced_workload workload ~seed in
      let metrics = per_layer workload t in
      let attributed = attribution_ok metrics t in
      if not attributed then prerr_endline "perfbench: layer self times do not add up";
      let trace_file =
        match Hashtbl.find_opt tbl "trace-file" with
        | Some f -> f
        | None -> Filename.concat scratch_root (Printf.sprintf "trace-%s-%d.json" workload seed)
      in
      write_file trace_file (Obs.Trace.to_json !Spans.chrome);
      let ln, lv = largest_layer metrics in
      Printf.printf "largest layer: %s (%.3f s of %.3f s traced)\n" ln lv t.wall_on;
      let failed = t.t_failed + if attributed then 0 else 1 in
      ( t.t_attempted + 1,
        failed,
        metrics,
        t.t_facts @ [ ("trace_file", Json.Str trace_file); ("largest_layer", Json.Str ln) ] )
    end
  in
  print_metrics metrics;
  let record =
    Json.Obj
      (header @ env
      @ [ ("attempted", Json.Num (float_of_int attempted));
          ("failed", Json.Num (float_of_int failed));
          ("metrics", metrics_json metrics);
          ("facts", Json.Obj facts) ])
  in
  Printf.printf "env %s\n" (Json.to_string (Json.Obj env));
  Option.iter
    (fun path -> write_file path (Json.to_string record ^ "\n"))
    (Hashtbl.find_opt tbl "out");
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("correct", Json.Bool (failed = 0));
            ("attempted", Json.Num (float_of_int attempted));
            ("failed", Json.Num (float_of_int failed));
            ("metrics", metrics_json metrics) ]));
  if failed > 0 then exit 1

let () =
  Unix.putenv "TL_DOMAINS" (string_of_int width);
  (* a server that dies must surface as failed requests, not kill us *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match List.tl (Array.to_list Sys.argv) with
  | "steady" :: rest -> Steady.main (parse_args rest)
  | args -> measure (parse_args args)
