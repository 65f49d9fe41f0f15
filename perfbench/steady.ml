(* Steadiness mode: run one workload K times (or two sets of K) with a
   fresh seed each time and print, for every end-to-end metric, its
   median, quartiles and spread against its bound in BENCHMARK.json.
   With two sets it also prints how far the second median moved from the
   first, in the metric's worse direction.  Used to set the bounds and to
   show that two sets of runs agree. *)

open Tensorlib
open Common

let read_lines ic =
  let rec go acc =
    match input_line ic with l -> go (l :: acc) | exception End_of_file -> List.rev acc
  in
  go []

let spec () =
  let ic = open_in_bin "BENCHMARK.json" in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Json.parse s with Ok j -> j | Error e -> failwith ("BENCHMARK.json: " ^ e)

(* (name, lower_is_better, bound) of every end-to-end metric *)
let bounds spec =
  match Json.member "end_to_end" spec with
  | Some (Json.List l) ->
    List.map
      (fun m ->
        ( Option.get (Json.mem_string m "name"),
          Json.mem_string m "better" = Some "lower",
          Option.get (Json.mem_number m "bound") ))
      l
  | _ -> failwith "BENCHMARK.json: no end_to_end list"

(* One run in a child process; its metric values, or [None] if it failed. *)
let one ~workload ~seconds seed =
  let args =
    [ "--workload"; workload; "--seed"; string_of_int seed; "--seconds";
      string_of_int seconds; "--trace"; "0" ]
  in
  let ic =
    Unix.open_process_args_in Sys.executable_name
      (Array.of_list (Sys.executable_name :: args))
  in
  let lines = read_lines ic in
  let status = Unix.close_process_in ic in
  match (status, List.rev lines) with
  | Unix.WEXITED 0, last :: _ -> (
    match Json.parse last with
    | Ok j -> (
      match Json.member "metrics" j with
      | Some (Json.Obj ms) ->
        Some
          (List.map (fun (n, m) -> (n, Option.get (Json.mem_number m "value"))) ms)
      | _ -> None)
    | Error _ -> None)
  | _ -> None

let main tbl =
  let workload = Option.value (Hashtbl.find_opt tbl "workload") ~default:"" in
  if not (List.mem workload workloads) then usage ();
  let spec = spec () in
  let runs = int_arg tbl "runs" ~default:10 in
  let sets = int_arg tbl "sets" ~default:1 in
  let seed0 = int_arg tbl "seed" ~default:1 in
  let seconds =
    int_arg tbl "seconds" ~default:(Option.value (Json.mem_int spec "run_seconds") ~default:10)
  in
  let bounds = bounds spec in
  let bad = ref 0 in
  let medians =
    List.init sets (fun set ->
        let results =
          List.init runs (fun i ->
              let seed = seed0 + (set * runs) + i in
              let r = one ~workload ~seconds seed in
              (match r with
              | None ->
                incr bad;
                Printf.printf "run with seed %d failed\n%!" seed
              | Some ms ->
                Printf.printf "seed %d:%s\n%!" seed
                  (String.concat ""
                     (List.map (fun (n, v) -> Printf.sprintf " %s=%.6g" n v) ms)));
              r)
          |> List.filter_map Fun.id
        in
        Printf.printf "\n%s set %d: %d runs\n%-18s %12s %12s %12s %8s %6s\n" workload
          (set + 1) (List.length results) "metric" "median" "q1" "q3" "spread" "bound";
        List.map
          (fun (name, _, bound) ->
            let vs = List.filter_map (List.assoc_opt name) results in
            let q1, med, q3 = Stats.quartiles vs in
            let spread = (q3 -. q1) /. med in
            let verdict =
              if spread <= bound /. 3. then "steady"
              else if spread <= bound then "within bound"
              else (incr bad; "WIDER THAN BOUND")
            in
            Printf.printf "%-18s %12.6g %12.6g %12.6g %8.4f %6.3f  %s\n%!" name med q1 q3
              spread bound verdict;
            (name, med))
          bounds)
  in
  (match medians with
  | [ m1; m2 ] ->
    Printf.printf "\nsecond set vs first (worse direction):\n";
    List.iter
      (fun (name, lower, bound) ->
        let a = List.assoc name m1 and b = List.assoc name m2 in
        let worse = (if lower then b -. a else a -. b) /. a in
        let verdict = if worse <= bound then "agree" else (incr bad; "DISAGREE") in
        Printf.printf "%-18s %+8.4f %6.3f  %s\n" name worse bound verdict)
      bounds
  | _ -> ());
  if !bad > 0 then exit 1
