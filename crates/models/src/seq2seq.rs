//! Appendix D.4 — sequence-to-sequence inference.
//!
//! A recurrent encoder consumes the source tokens; a decoder emits target
//! logits step by step. `teacher_forcing` is a Python hyperparameter: with
//! forcing, the decoder consumes the gold target token (cheap — the paper
//! notes this *doubles* the relative AutoGraph gain because per-op
//! overhead dominates); without it, the decoder feeds back its own argmax
//! (a data-dependent loop-carried value).

use autograph_runtime::runtime::GraphArg;
use autograph_runtime::{Runtime, RuntimeError, Value};
use autograph_tensor::{Rng64, Tensor};

/// The imperative encoder/decoder.
pub(crate) const SEQ2SEQ_SRC: &str = "\
def encode(src_t):
    state = tf.zeros((batch, hidden))
    for t in tf.range(src_len):
        x = tf.gather(embed_src, src_t[t])
        state = tf.tanh(tf.matmul(x, w_enc_in) + tf.matmul(state, w_enc_h))
    return state

def decode(state, tgt_t):
    outputs = []
    ag.set_element_type(outputs, tf.float32)
    prev = tf.zeros((batch,))
    prev = tf.cast(prev, tf.int64)
    for t in tf.range(tgt_len):
        if teacher_forcing:
            inp = tgt_t[t]
        else:
            inp = prev
        x = tf.gather(embed_tgt, inp)
        state = tf.tanh(tf.matmul(x, w_dec_in) + tf.matmul(state, w_dec_h))
        logits = tf.matmul(state, w_out)
        prev = tf.argmax(logits, 1)
        outputs.append(logits)
    return ag.stack(outputs)

def seq2seq(src_t, tgt_t):
    state = encode(src_t)
    return decode(state, tgt_t)
";

/// Model weights.
#[derive(Debug, Clone)]
pub struct Seq2SeqWeights {
    /// Source embeddings `[vocab, hidden]`.
    pub embed_src: Tensor,
    /// Target embeddings `[vocab, hidden]`.
    pub embed_tgt: Tensor,
    /// Encoder input projection.
    pub w_enc_in: Tensor,
    /// Encoder recurrent projection.
    pub w_enc_h: Tensor,
    /// Decoder input projection.
    pub w_dec_in: Tensor,
    /// Decoder recurrent projection.
    pub w_dec_h: Tensor,
    /// Output projection `[hidden, vocab]`.
    pub w_out: Tensor,
    /// Attention-context projection `[hidden, hidden]` (attention variant).
    pub w_ctx: Tensor,
}

/// Model/workload configuration.
#[derive(Debug, Clone, Copy)]
pub struct Seq2SeqConfig {
    /// Vocabulary size.
    pub vocab: usize,
    /// Hidden size.
    pub hidden: usize,
    /// Batch size.
    pub batch: usize,
    /// Source length.
    pub src_len: usize,
    /// Target length.
    pub tgt_len: usize,
    /// Feed gold tokens into the decoder.
    pub teacher_forcing: bool,
}

impl Seq2SeqWeights {
    /// Deterministic random weights.
    pub fn new(cfg: &Seq2SeqConfig, seed: u64) -> Seq2SeqWeights {
        let mut rng = Rng64::new(seed);
        Seq2SeqWeights {
            embed_src: rng.normal_tensor(&[cfg.vocab, cfg.hidden], 0.4),
            embed_tgt: rng.normal_tensor(&[cfg.vocab, cfg.hidden], 0.4),
            w_enc_in: rng.normal_tensor(&[cfg.hidden, cfg.hidden], 0.4),
            w_enc_h: rng.normal_tensor(&[cfg.hidden, cfg.hidden], 0.4),
            w_dec_in: rng.normal_tensor(&[cfg.hidden, cfg.hidden], 0.4),
            w_dec_h: rng.normal_tensor(&[cfg.hidden, cfg.hidden], 0.4),
            w_out: rng.normal_tensor(&[cfg.hidden, cfg.vocab], 0.4),
            w_ctx: rng.normal_tensor(&[cfg.hidden, cfg.hidden], 0.4),
        }
    }
}

/// Load the module with weights and hyperparameters bound.
///
/// # Errors
///
/// Propagates load/conversion errors.
pub fn runtime(
    cfg: &Seq2SeqConfig,
    w: &Seq2SeqWeights,
    convert: bool,
) -> Result<Runtime, RuntimeError> {
    runtime_with(SEQ2SEQ_SRC, cfg, w, convert)
}

fn runtime_with(
    src: &str,
    cfg: &Seq2SeqConfig,
    w: &Seq2SeqWeights,
    convert: bool,
) -> Result<Runtime, RuntimeError> {
    let rt = Runtime::load(src, convert)?;
    rt.globals.set("w_ctx", Value::tensor(w.w_ctx.clone()));
    rt.globals
        .set("embed_src", Value::tensor(w.embed_src.clone()));
    rt.globals
        .set("embed_tgt", Value::tensor(w.embed_tgt.clone()));
    rt.globals
        .set("w_enc_in", Value::tensor(w.w_enc_in.clone()));
    rt.globals.set("w_enc_h", Value::tensor(w.w_enc_h.clone()));
    rt.globals
        .set("w_dec_in", Value::tensor(w.w_dec_in.clone()));
    rt.globals.set("w_dec_h", Value::tensor(w.w_dec_h.clone()));
    rt.globals.set("w_out", Value::tensor(w.w_out.clone()));
    rt.globals.set("batch", Value::Int(cfg.batch as i64));
    rt.globals.set("hidden", Value::Int(cfg.hidden as i64));
    rt.globals.set("src_len", Value::Int(cfg.src_len as i64));
    rt.globals.set("tgt_len", Value::Int(cfg.tgt_len as i64));
    rt.globals
        .set("teacher_forcing", Value::Bool(cfg.teacher_forcing));
    Ok(rt)
}

/// Random source/target sequences, time-major (`[len, batch]` i64) so the
/// model indexes rows per step.
pub fn sequences(cfg: &Seq2SeqConfig, seed: u64) -> (Tensor, Tensor) {
    let mut rng = Rng64::new(seed);
    (
        rng.labels_tensor(&[cfg.src_len, cfg.batch], cfg.vocab as u64),
        rng.labels_tensor(&[cfg.tgt_len, cfg.batch], cfg.vocab as u64),
    )
}

/// Run eagerly; returns logits `[tgt_len, batch, vocab]`.
///
/// # Errors
///
/// Propagates interpreter errors.
pub fn run_eager(rt: &mut Runtime, src: &Tensor, tgt: &Tensor) -> Result<Tensor, RuntimeError> {
    let out = rt.call(
        "seq2seq",
        vec![Value::tensor(src.clone()), Value::tensor(tgt.clone())],
    )?;
    out.as_eager_tensor()
}

/// Stage the model (placeholders `src_t`, `tgt_t`).
///
/// # Errors
///
/// Propagates staging errors.
pub fn stage(rt: &mut Runtime) -> Result<autograph_runtime::StagedGraph, RuntimeError> {
    rt.stage_to_graph(
        "seq2seq",
        vec![
            GraphArg::Placeholder("src_t".into()),
            GraphArg::Placeholder("tgt_t".into()),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The attention variant (the paper's "Neural Model Translation with
    /// Attention" sample): the encoder keeps all hidden states; each decoder
    /// step computes dot-product attention weights over them and mixes a
    /// context vector into the recurrence.
    const SEQ2SEQ_ATTENTION_SRC: &str = "\
def encode_all(src_t):
    state = tf.zeros((batch, hidden))
    states = []
    ag.set_element_type(states, tf.float32)
    for t in tf.range(src_len):
        x = tf.gather(embed_src, src_t[t])
        state = tf.tanh(tf.matmul(x, w_enc_in) + tf.matmul(state, w_enc_h))
        states.append(state)
    return ag.stack(states), state

def attend(enc_states, state):
    scores = tf.reduce_sum(enc_states * tf.expand_dims(state, 0), 2)
    weights = tf.transpose(tf.softmax(tf.transpose(scores, (1, 0))), (1, 0))
    context = tf.reduce_sum(enc_states * tf.expand_dims(weights, 2), 0)
    return context

def decode_attn(enc_states, state, tgt_t):
    outputs = []
    ag.set_element_type(outputs, tf.float32)
    prev = tf.cast(tf.zeros((batch,)), tf.int64)
    for t in tf.range(tgt_len):
        if teacher_forcing:
            inp = tgt_t[t]
        else:
            inp = prev
        x = tf.gather(embed_tgt, inp)
        context = attend(enc_states, state)
        state = tf.tanh(tf.matmul(x, w_dec_in) + tf.matmul(state, w_dec_h) + tf.matmul(context, w_ctx))
        logits = tf.matmul(state, w_out)
        prev = tf.argmax(logits, 1)
        outputs.append(logits)
    return ag.stack(outputs)

def seq2seq_attn(src_t, tgt_t):
    enc_states, state = encode_all(src_t)
    return decode_attn(enc_states, state, tgt_t)
";

    /// Load the attention variant (`seq2seq_attn`).
    fn runtime_attention(
        cfg: &Seq2SeqConfig,
        w: &Seq2SeqWeights,
        convert: bool,
    ) -> Result<Runtime, RuntimeError> {
        runtime_with(SEQ2SEQ_ATTENTION_SRC, cfg, w, convert)
    }

    /// Run the attention variant eagerly.
    fn run_eager_attention(
        rt: &mut Runtime,
        src: &Tensor,
        tgt: &Tensor,
    ) -> Result<Tensor, RuntimeError> {
        let out = rt.call(
            "seq2seq_attn",
            vec![Value::tensor(src.clone()), Value::tensor(tgt.clone())],
        )?;
        out.as_eager_tensor()
    }

    /// Stage the attention variant (placeholders `src_t`, `tgt_t`).
    fn stage_attention(rt: &mut Runtime) -> Result<autograph_runtime::StagedGraph, RuntimeError> {
        rt.stage_to_graph(
            "seq2seq_attn",
            vec![
                GraphArg::Placeholder("src_t".into()),
                GraphArg::Placeholder("tgt_t".into()),
            ],
        )
    }

    use autograph_graph::Session;

    fn cfg(teacher_forcing: bool) -> Seq2SeqConfig {
        Seq2SeqConfig {
            vocab: 13,
            hidden: 6,
            batch: 3,
            src_len: 5,
            tgt_len: 4,
            teacher_forcing,
        }
    }

    fn check_agreement(teacher_forcing: bool) {
        let cfg = cfg(teacher_forcing);
        let w = Seq2SeqWeights::new(&cfg, 8);
        let (src, tgt) = sequences(&cfg, 21);

        let mut rt = runtime(&cfg, &w, false).unwrap();
        let eager = run_eager(&mut rt, &src, &tgt).unwrap();
        assert_eq!(eager.shape(), &[cfg.tgt_len, cfg.batch, cfg.vocab]);

        let mut rt2 = runtime(&cfg, &w, true).unwrap();
        let staged = stage(&mut rt2).unwrap();
        let mut sess = Session::new(staged.graph);
        let out = sess
            .run(&[("src_t", src), ("tgt_t", tgt)], &staged.outputs)
            .unwrap();
        for (a, b) in out[0].as_f32().unwrap().iter().zip(eager.as_f32().unwrap()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn teacher_forcing_agrees() {
        check_agreement(true);
    }

    #[test]
    fn free_running_agrees() {
        check_agreement(false);
    }

    #[test]
    fn attention_variant_eager_and_staged_agree() {
        for teacher_forcing in [true, false] {
            let cfg = cfg(teacher_forcing);
            let w = Seq2SeqWeights::new(&cfg, 8);
            let (src, tgt) = sequences(&cfg, 21);

            let mut rt = runtime_attention(&cfg, &w, false).unwrap();
            let eager = run_eager_attention(&mut rt, &src, &tgt).unwrap();
            assert_eq!(eager.shape(), &[cfg.tgt_len, cfg.batch, cfg.vocab]);

            let mut rt2 = runtime_attention(&cfg, &w, true).unwrap();
            let staged = stage_attention(&mut rt2).unwrap();
            let mut sess = Session::new(staged.graph);
            let out = sess
                .run(&[("src_t", src), ("tgt_t", tgt)], &staged.outputs)
                .unwrap();
            for (a, b) in out[0].as_f32().unwrap().iter().zip(eager.as_f32().unwrap()) {
                assert!((a - b).abs() < 1e-4, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn attention_changes_predictions() {
        let cfg = cfg(true);
        let w = Seq2SeqWeights::new(&cfg, 8);
        let (src, tgt) = sequences(&cfg, 21);
        let mut plain = runtime(&cfg, &w, false).unwrap();
        let mut attn = runtime_attention(&cfg, &w, false).unwrap();
        let a = run_eager(&mut plain, &src, &tgt).unwrap();
        let b = run_eager_attention(&mut attn, &src, &tgt).unwrap();
        let diff: f32 = a
            .as_f32()
            .unwrap()
            .iter()
            .zip(b.as_f32().unwrap())
            .map(|(x, y)| (x - y).abs())
            .sum();
        assert!(diff > 1e-3, "attention should alter the logits");
    }

    #[test]
    fn modes_differ() {
        // sanity: forcing vs free-running produce different logits
        let c1 = cfg(true);
        let c2 = cfg(false);
        let w = Seq2SeqWeights::new(&c1, 8);
        let (src, tgt) = sequences(&c1, 5);
        let mut rt1 = runtime(&c1, &w, false).unwrap();
        let mut rt2 = runtime(&c2, &w, false).unwrap();
        let a = run_eager(&mut rt1, &src, &tgt).unwrap();
        let b = run_eager(&mut rt2, &src, &tgt).unwrap();
        let diff: f32 = a
            .as_f32()
            .unwrap()
            .iter()
            .zip(b.as_f32().unwrap())
            .map(|(x, y)| (x - y).abs())
            .sum();
        assert!(diff > 1e-3);
    }
}
