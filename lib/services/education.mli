(** Distance education: the paper's second example.

    A content unit is a topic made of learning objects (lecture notes,
    animations, quiz questions).  A session streams object fragments; the
    student follows hyper-links (jumping between objects) and answers
    quizzes.  Poor quiz grades switch the session to detailed
    explanations — the dynamic, context-dependent behaviour the paper
    highlights ("the service may provide more detailed explanations if
    the last quiz grade is low"). *)

type context = {
  topic_size : int;  (** Number of learning objects in the topic. *)
  current : int;  (** Object being streamed. *)
  part : int;  (** Next fragment within the object. *)
  detailed : bool;  (** Streaming the long version after a poor grade. *)
  completed : int list;  (** Objects fully delivered, newest first. *)
}

type request = Follow_link of int | Quiz_answer of { grade : int }

type response = Fragment of { obj : int; part : int; detailed : bool }

val parts_terse : int

include
  Haf_core.Service_intf.SERVICE
    with type context := context
     and type request := request
     and type response := response
