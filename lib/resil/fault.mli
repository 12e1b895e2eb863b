(** Deterministic fault injection.

    The chase runtime is instrumented with {!Obs.Probe} points at its
    natural step boundaries ([engine.pass], [engine.insert],
    [engine.join], and [ground_closure.round], hit once per saturation
    run of the ground closure — of the instance or of one child bag).
    A {e trigger} arms the
    global probe hook to raise {!Injected} at a chosen point: the Nth
    probe hit overall, the Nth hit of one named point, or once an
    (injectable) clock passes a wall-clock mark. Arming is deterministic — re-running the same
    computation with the same trigger fails at the same step — which is
    what makes the supervisor's kill-and-resume behaviour testable.

    A {e plan} is one trigger per supervised attempt: attempt [k] runs
    under trigger [k] (1-based); attempts beyond the plan's length run
    fault-free, so a plan of length [n] describes a run that fails [n]
    times and then succeeds. *)

(** Raised from inside an armed probe point. The payload is the point
    name and the overall hit count at the moment of failure. *)
exception Injected of string * int

(** Raised by {!attempt} on a violated library precondition: retrying
    cannot change a deterministic verdict, so supervisors fail fast. *)
exception Fatal of string

(** [describe e] — the one-line diagnostic of a fault: ["injected fault
    at POINT (hit N)"] for {!Injected}, the exception's printed form
    otherwise. *)
val describe : exn -> string

(** [attempt f] — one supervised attempt: [Ok] the value of [f ()], or
    [Error] the {!describe}d exception it raised. [Invalid_argument msg]
    is re-raised as [Fatal "precondition violated: msg"]. *)
val attempt : (unit -> 'a) -> ('a, string) result

(** [backoff ~base_ms ~max_ms k] — the delay after failed attempt [k]
    (1-based): [min max_ms (base_ms · 2^(k−1))]. *)
val backoff : base_ms:float -> max_ms:float -> int -> float

type trigger =
  | At_hit of int  (** fail at the Nth probe hit, any point (1-based) *)
  | At_point of string * int  (** fail at the Nth hit of the named point *)
  | Every_point of string
      (** fail at {e every} hit of the named point. Counterless — the
          armed hook touches no mutable state, so it is safe to hit from
          concurrent domains (the concurrent server's poison queries);
          the {!Injected} hit payload is a fixed [1] so failure messages
          stay canonical. In {!arm_seq} it never advances the sequence. *)
  | After_ms of float  (** fail at the first hit ≥ this many ms after arming *)

(** One trigger per attempt; [[]] is the fault-free plan. *)
type plan = trigger list

val none : plan

(** A non-empty plan made only of [Every_point] triggers: arming it
    installs a hook with no mutable state, so it stays deterministic
    under concurrent probe hits from multiple domains. *)
val stateless : plan -> bool

(** [trigger_for plan ~attempt] — the trigger arming attempt [attempt]
    (1-based); [None] past the end of the plan. *)
val trigger_for : plan -> attempt:int -> trigger option

(** [arm ?clock trigger] — install the probe hook. [clock] is wall-clock
    seconds for [After_ms] (tests inject fake time); defaults to
    [Unix.gettimeofday]. Replaces any previously armed trigger. *)
val arm : ?clock:(unit -> float) -> trigger -> unit

(** Remove the armed trigger (idempotent). *)
val disarm : unit -> unit

(** [arm_seq ?clock plan] — arm the {e whole} plan over one long-running
    computation (a [serve] mutation loop), instead of one trigger per
    supervised attempt: trigger 1 is live first; when it fires, trigger 2
    becomes live (its hit/point/clock counters restart at the moment of
    advancement), and so on. A plan of length [n] injects exactly [n]
    faults, then the computation runs fault-free. [arm_seq []] disarms. *)
val arm_seq : ?clock:(unit -> float) -> plan -> unit

(** [suspended f] — run [f ()] with the currently armed trigger (or
    sequence) lifted, re-installing it afterwards with its counters
    intact. Recovery machinery (state restoration, replay of
    previously-successful mutations) runs under [suspended] so a plan's
    triggers fire on the supervised path itself, not on the repair of an
    earlier firing. No-op when nothing is armed. *)
val suspended : (unit -> 'a) -> 'a

(** [with_trigger ?clock trig f] — run [f ()] with [trig] armed ([None]
    arms nothing), disarming afterwards even if [f] raises. *)
val with_trigger : ?clock:(unit -> float) -> trigger option -> (unit -> 'a) -> 'a

(** [random ~seed ?attempts ?max_hits ()] — a reproducible plan of
    [attempts] (default 3) [At_hit] triggers drawn from
    [1..max_hits] (default 500) by a fixed LCG; same seed, same plan. *)
val random : seed:int -> ?attempts:int -> ?max_hits:int -> unit -> plan

(** Parse a plan spec. Grammar:
    {v
    spec    ::= "none" | "seed:" INT [ ":" INT ]   (* seed [, attempts] *)
              | trigger ("," trigger)*
    trigger ::= "hit:" INT | "point:" NAME ":" INT
              | "point:" NAME ":*" | "ms:" FLOAT
    v}
    [NAME] is a probe point name (contains no [':'] or [',']);
    [point:NAME:*] is the always-fire [Every_point] trigger. *)
val parse : string -> (plan, string) result

(** Inverse of {!parse} (canonical form; [random] plans print as their
    expansion). *)
val to_string : plan -> string
