(* Seeded retry-with-backoff.

   The combinator retries transient failures (by default [Sys_error] /
   [Unix_error] — I/O weather, not logic bugs) with exponential backoff
   and deterministic jitter: the k-th delay for a given (seed, label) is
   a pure function, so campaigns replay bit-identically.  The sleep is
   injectable — tests pass a recording no-op and never touch the wall
   clock; production keeps [Unix.sleepf].

   Global atomic counters record re-attempts and give-ups so the
   resilience gates can report how much weather a run absorbed. *)

type policy = {
  attempts : int;  (* total attempts, including the first *)
  base_delay_s : float;
  multiplier : float;
  jitter : float;  (* fraction of each delay drawn uniformly *)
  sleep : float -> unit;
  retry_on : exn -> bool;
}

let transient = function
  | Sys_error _ | Unix.Unix_error _ -> true
  | _ -> false

let default =
  {
    attempts = 3;
    base_delay_s = 0.001;
    multiplier = 4.0;
    jitter = 0.5;
    sleep = Unix.sleepf;
    retry_on = transient;
  }

let retries_ctr = Atomic.make 0
let giveups_ctr = Atomic.make 0

let retries () = Atomic.get retries_ctr
let giveups () = Atomic.get giveups_ctr

let reset_counters () =
  Atomic.set retries_ctr 0;
  Atomic.set giveups_ctr 0

(* k-th backoff delay (k = 0 for the first re-attempt): exponential with
   deterministic jitter from (seed, label, k). *)
let delay_s policy ~seed ~label k =
  let base = policy.base_delay_s *. (policy.multiplier ** float_of_int k) in
  if policy.jitter <= 0. then base
  else
    let st = Random.State.make [| seed; Hashtbl.hash label; k |] in
    base *. (1. -. policy.jitter +. (policy.jitter *. Random.State.float st 1.))

let with_retry ?(policy = default) ?(seed = 0) ~label f =
  let rec go attempt =
    match f () with
    | v -> v
    | exception e when attempt + 1 < policy.attempts && policy.retry_on e ->
      Atomic.incr retries_ctr;
      policy.sleep (delay_s policy ~seed ~label attempt);
      go (attempt + 1)
    | exception e ->
      if policy.retry_on e then Atomic.incr giveups_ctr;
      raise e
  in
  go 0

let with_retry_opt ?policy ?seed ~label f =
  let retry_on = (match policy with Some p -> p | None -> default).retry_on in
  match with_retry ?policy ?seed ~label f with
  | v -> Some v
  | exception e when retry_on e -> None
