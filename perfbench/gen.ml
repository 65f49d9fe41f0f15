(* Seeded input generator.  Every input a workload hands to the programs
   under test is drawn here from the run's [--seed]; the same seed gives
   the same inputs. *)

let rng ~seed salt = Random.State.make [| seed; salt |]

(* generate: the [Exec.alloc_inputs] seed of tier-1 case [case]. *)
let input_seed ~seed ~case = Hashtbl.hash (seed, "inputs", case)

(* campaign: the fault-plan seed of [build] in round [round].  Rounds
   alternate between two plans, so every run replays a plan and can check
   that it reproduces the same outcome digest. *)
let plan_seed ~seed ~round ~build = Hashtbl.hash (seed, "plan", round mod 2, build)

(* ------------------------------------------------------------------ *)
(* serve: a closed-loop request stream against a 4x4 MNK-SST target that
   accepts m = n = 4 and k = 1..64. *)

type cls = Repeat | Novel | Reject

let cls_label = function
  | Repeat -> "repeat"
  | Novel -> "novel"
  | Reject -> "reject"

type request = { cls : cls; m : int; n : int; k : int }

(* accept or typed rejection *)
let expect_ok r = r.cls <> Reject

let einsum = "C[m,n] += A[m,k] * B[n,k]"

let line ~id r =
  Printf.sprintf {|{"id": %d, "einsum": "%s", "extents": "m=%d,n=%d,k=%d"}|}
    id einsum r.m r.n r.k

(* The traffic below is an assumption: the repository holds no recorded
   serve traffic.  Revisit the hot set and the mix once request logs
   exist.

   Shapes every server answers while it is set up; [Repeat] requests
   draw from them, so a repeat is always a shape already answered.  The
   four span the accepted range: the generating shape (k = 4), two
   middle k, and k = 64, the edge of the 16x headroom envelope. *)
let hot_ks = [ 4; 16; 40; 64 ]

let warmup = List.map (fun k -> { cls = Novel; m = 4; n = 4; k }) hot_ks

(* Per server process: a fixed class mix in seeded order.  Repeats are a
   clear majority (58 of 96, 60 %), on the guess that served models send
   the same few layer shapes again and again; with repeats well above
   half, the median of all requests falls inside the repeat class and
   the tail inside the slower of the other two, whichever class a later
   change speeds up.  Novel (24, 25 %) uses 24 of the 60 unused k.
   Reject (14, 15 %) is the smallest class: a mis-sized request is the
   exception, yet 14 per process keep its median steady. *)
let repeats = 58
let novels = 24
let rejects = 14

let shuffle st l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let serve_stream ~seed ~proc =
  let st = rng ~seed (1000 + proc) in
  let novel_ks =
    List.init 64 (fun i -> i + 1)
    |> List.filter (fun k -> not (List.mem k hot_ks))
    |> shuffle st
    |> List.filteri (fun i _ -> i < novels)
    |> ref
  in
  let classes =
    shuffle st
      (List.init repeats (fun _ -> Repeat)
      @ List.init novels (fun _ -> Novel)
      @ List.init rejects (fun _ -> Reject))
  in
  let pick l = List.nth l (Random.State.int st (List.length l)) in
  List.map
    (fun cls ->
      match cls with
      | Repeat -> { cls; m = 4; n = 4; k = pick hot_ks }
      | Novel ->
        let k = List.hd !novel_ks in
        novel_ks := List.tl !novel_ks;
        { cls; m = 4; n = 4; k }
      | Reject ->
        (* near misses around the 4x4 array, the shapes a mis-sized
           client is likeliest to send *)
        let rec spatial () =
          let m = pick [ 2; 3; 4; 5; 6 ] and n = pick [ 2; 3; 4; 5; 6 ] in
          if m = 4 && n = 4 then spatial () else (m, n)
        in
        let m, n = spatial () in
        { cls; m; n; k = 1 + Random.State.int st 64 })
    classes
