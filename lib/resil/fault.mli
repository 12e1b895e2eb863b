(** Deterministic fault injection.

    The chase runtime is instrumented with {!Obs.Probe} points at its
    natural step boundaries ([engine.pass], [engine.insert],
    [engine.join], and [ground_closure.round], hit once per saturation
    run of the ground closure — of the instance or of one child bag).
    A {e trigger} makes the global probe hook raise {!Injected} at a
    chosen point: the Nth probe hit overall, the Nth hit of one named
    point, every hit of one named point, or once an (injectable) clock
    passes a wall-clock mark. Arming is deterministic — re-running the
    same computation under the same plan fails at the same steps — which
    is what makes the supervisors' kill-and-retry behaviour testable.

    A {e plan} is a sequence of triggers armed once, by {!arm_seq}, over
    a whole supervised run: trigger 1 is live first, and each time the
    live trigger fires the next one goes live, counting its hits (or its
    clock) from that moment. A plan of counted triggers of length [n]
    injects exactly [n] faults and then lets the run finish, so under a
    retrying supervisor trigger [k] kills attempt [k]; an [Every_point]
    trigger never yields to the next and fails every attempt that
    reaches its point. The [chase] supervisor, the [serve] session and
    the [server] daemon all arm plans this way. *)

(** Raised from inside an armed probe point. The payload is the point
    name and the count of probe hits, of any point, since the firing
    trigger went live ([1] for an [Every_point] trigger). *)
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

(** [retry ~attempts ~base_ms ~max_ms ~sleep f] — the retry loop both
    supervisors share: run [f 1], [f 2], … until one returns [Ok] or
    [attempts] calls have failed, sleeping {!backoff}[ k] (in seconds,
    via [sleep]) after failed call [k] when another follows. Each failure
    is [(k, fault, backoff_ms)], in order; the last failure of an
    [Error] slept nothing and carries [0.]. Exceptions from [f]
    propagate. *)
val retry :
  attempts:int ->
  base_ms:float ->
  max_ms:float ->
  sleep:(float -> unit) ->
  (int -> ('a, 'e) result) ->
  ('a * (int * 'e * float) list, (int * 'e * float) list) result

type trigger =
  | At_hit of int  (** fail at the Nth probe hit, any point (1-based) *)
  | At_point of string * int  (** fail at the Nth hit of the named point *)
  | Every_point of string
      (** fail at {e every} hit of the named point, and never advance
          the sequence. In a {!stateless} plan the armed hook touches no
          mutable state, so it is safe to hit from concurrent domains
          (the concurrent server's poison queries); the {!Injected} hit
          payload is a fixed [1] so failure messages stay canonical. *)
  | After_ms of float
      (** fail at the first hit ≥ this many ms after the trigger went
          live *)

(** Triggers in the order they go live; [[]] is the fault-free plan. *)
type plan = trigger list

val none : plan

(** A non-empty plan made only of [Every_point] triggers: arming it
    installs a hook with no mutable state, so it stays deterministic
    under concurrent probe hits from multiple domains. *)
val stateless : plan -> bool

(** Remove the armed trigger (idempotent). *)
val disarm : unit -> unit

(** [arm_seq ?clock plan] — install the probe hook for the whole plan,
    replacing any armed one: trigger 1 is live first; when it fires,
    trigger 2 becomes live (its hit/point/clock counters restart at that
    moment, and the {!Injected} hit payload counts from it), and so on.
    [clock] is wall-clock seconds for [After_ms] (tests inject fake
    time); defaults to [Unix.gettimeofday]. [arm_seq []] disarms. *)
val arm_seq : ?clock:(unit -> float) -> plan -> unit

(** [suspended f] — run [f ()] with the currently armed plan lifted,
    re-installing it afterwards with its counters intact. Recovery
    machinery (state restoration, replay of previously-successful
    mutations) runs under [suspended] so a plan's triggers fire on the
    supervised path itself, not on the repair of an earlier firing. No-op when nothing is armed. *)
val suspended : (unit -> 'a) -> 'a

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
