//! Flat register programs for compiled QGL expressions.
//!
//! The paper JIT-compiles each unique QGL expression with LLVM into a native function
//! that maps a parameter vector to the gate's matrix elements (and, when requested, the
//! elements of every partial derivative). In this reproduction the compiled artifact is
//! an [`ExprProgram`]: a flat sequence of register instructions with all common
//! subexpressions deduplicated at compile time, executed by a tight interpreter loop with
//! no allocation, hashing, or tree traversal on the hot path (the crate docs say why an
//! interpreter stands in for LLVM).

use qudit_tensor::{Complex, Float};

/// A virtual register index.
pub type Reg = u32;

/// A single scalar instruction of the expression VM.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Instr {
    /// `reg[dst] = params[index]`
    LoadParam {
        /// Destination register.
        dst: Reg,
        /// Index into the parameter vector.
        index: u32,
    },
    /// `reg[dst] = value`
    LoadConst {
        /// Destination register.
        dst: Reg,
        /// The constant value.
        value: f64,
    },
    /// `reg[dst] = -reg[src]`
    Neg {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// `reg[dst] = reg[a] + reg[b]`
    Add {
        /// Destination register.
        dst: Reg,
        /// Left operand register.
        a: Reg,
        /// Right operand register.
        b: Reg,
    },
    /// `reg[dst] = reg[a] - reg[b]`
    Sub {
        /// Destination register.
        dst: Reg,
        /// Left operand register.
        a: Reg,
        /// Right operand register.
        b: Reg,
    },
    /// `reg[dst] = reg[a] * reg[b]`
    Mul {
        /// Destination register.
        dst: Reg,
        /// Left operand register.
        a: Reg,
        /// Right operand register.
        b: Reg,
    },
    /// `reg[dst] = reg[a] / reg[b]`
    Div {
        /// Destination register.
        dst: Reg,
        /// Left operand register.
        a: Reg,
        /// Right operand register.
        b: Reg,
    },
    /// `reg[dst] = reg[a].powf(reg[b])`
    Pow {
        /// Destination register.
        dst: Reg,
        /// Base register.
        a: Reg,
        /// Exponent register.
        b: Reg,
    },
    /// `reg[dst] = sin(reg[src])`
    Sin {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// `reg[dst] = cos(reg[src])`
    Cos {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// `reg[dst] = sqrt(reg[src])`
    Sqrt {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// `reg[dst] = exp(reg[src])`
    Exp {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// `reg[dst] = ln(reg[src])`
    Ln {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
}

/// Where a compiled output element comes from: the pair of registers holding its real
/// and imaginary parts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutputSlot {
    /// Register holding the real part.
    pub re: Reg,
    /// Register holding the imaginary part.
    pub im: Reg,
}

/// A compiled, flat register program evaluating a batch of complex outputs from a real
/// parameter vector.
#[derive(Debug, Clone, PartialEq)]
pub struct ExprProgram {
    /// The instruction sequence, in dependency order.
    pub instrs: Vec<Instr>,
    /// Number of registers required.
    pub num_regs: usize,
    /// Number of parameters expected.
    pub num_params: usize,
    /// One slot per complex output, in row-major output order.
    pub outputs: Vec<OutputSlot>,
}

impl ExprProgram {
    /// Number of scalar instructions (a proxy for per-call cost, reported by the
    /// expression-evaluation benchmark).
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// `true` if the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Executes the program, writing each complex output into `out`.
    ///
    /// `scratch` must have at least [`ExprProgram::num_regs`] elements; it is a caller
    /// provided buffer so the hot loop performs no allocation.
    ///
    /// # Panics
    ///
    /// Panics if `params`, `scratch`, or `out` are smaller than the program requires.
    #[inline]
    pub fn run<T: Float>(&self, params: &[T], scratch: &mut [T], out: &mut [Complex<T>]) {
        assert!(params.len() >= self.num_params, "parameter vector too short");
        assert!(scratch.len() >= self.num_regs, "scratch buffer too small");
        assert!(out.len() >= self.outputs.len(), "output buffer too small");
        for instr in &self.instrs {
            match *instr {
                Instr::LoadParam { dst, index } => scratch[dst as usize] = params[index as usize],
                Instr::LoadConst { dst, value } => scratch[dst as usize] = T::from_f64(value),
                Instr::Neg { dst, src } => scratch[dst as usize] = -scratch[src as usize],
                Instr::Add { dst, a, b } => {
                    scratch[dst as usize] = scratch[a as usize] + scratch[b as usize]
                }
                Instr::Sub { dst, a, b } => {
                    scratch[dst as usize] = scratch[a as usize] - scratch[b as usize]
                }
                Instr::Mul { dst, a, b } => {
                    scratch[dst as usize] = scratch[a as usize] * scratch[b as usize]
                }
                Instr::Div { dst, a, b } => {
                    scratch[dst as usize] = scratch[a as usize] / scratch[b as usize]
                }
                Instr::Pow { dst, a, b } => {
                    scratch[dst as usize] = scratch[a as usize].powf(scratch[b as usize])
                }
                Instr::Sin { dst, src } => scratch[dst as usize] = scratch[src as usize].sin(),
                Instr::Cos { dst, src } => scratch[dst as usize] = scratch[src as usize].cos(),
                Instr::Sqrt { dst, src } => scratch[dst as usize] = scratch[src as usize].sqrt(),
                Instr::Exp { dst, src } => scratch[dst as usize] = scratch[src as usize].exp(),
                Instr::Ln { dst, src } => scratch[dst as usize] = scratch[src as usize].ln(),
            }
        }
        for (slot, o) in self.outputs.iter().zip(out.iter_mut()) {
            *o = Complex::new(scratch[slot.re as usize], scratch[slot.im as usize]);
        }
    }

    /// Convenience wrapper allocating the scratch and output buffers (slow path; tests
    /// and one-off evaluations only).
    pub fn run_alloc<T: Float>(&self, params: &[T]) -> Vec<Complex<T>> {
        let mut scratch = vec![T::zero(); self.num_regs];
        let mut out = vec![Complex::zero(); self.outputs.len()];
        self.run(params, &mut scratch, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_program() -> ExprProgram {
        // out[0] = (p0 + 1) + i*(p0 * p0)
        ExprProgram {
            instrs: vec![
                Instr::LoadParam { dst: 0, index: 0 },
                Instr::LoadConst { dst: 1, value: 1.0 },
                Instr::Add { dst: 2, a: 0, b: 1 },
                Instr::Mul { dst: 3, a: 0, b: 0 },
            ],
            num_regs: 4,
            num_params: 1,
            outputs: vec![OutputSlot { re: 2, im: 3 }],
        }
    }

    #[test]
    fn runs_and_writes_outputs() {
        let p = tiny_program();
        let out = p.run_alloc(&[3.0f64]);
        assert_eq!(out[0], Complex::new(4.0, 9.0));
        assert_eq!(p.len(), 4);
        assert!(!p.is_empty());
    }

    #[test]
    fn works_in_single_precision() {
        let p = tiny_program();
        let out = p.run_alloc(&[2.0f32]);
        assert_eq!(out[0], Complex::new(3.0f32, 4.0));
    }

    #[test]
    fn transcendental_instructions() {
        let p = ExprProgram {
            instrs: vec![
                Instr::LoadParam { dst: 0, index: 0 },
                Instr::Sin { dst: 1, src: 0 },
                Instr::Cos { dst: 2, src: 0 },
                Instr::Sqrt { dst: 3, src: 0 },
                Instr::Exp { dst: 4, src: 0 },
                Instr::Ln { dst: 5, src: 0 },
                Instr::Neg { dst: 6, src: 1 },
                Instr::Sub { dst: 7, a: 2, b: 1 },
                Instr::Div { dst: 8, a: 1, b: 2 },
                Instr::LoadConst { dst: 9, value: 2.0 },
                Instr::Pow { dst: 10, a: 0, b: 9 },
            ],
            num_regs: 11,
            num_params: 1,
            outputs: vec![
                OutputSlot { re: 1, im: 2 },
                OutputSlot { re: 3, im: 4 },
                OutputSlot { re: 5, im: 6 },
                OutputSlot { re: 7, im: 8 },
                OutputSlot { re: 10, im: 0 },
            ],
        };
        let x = 0.83f64;
        let out = p.run_alloc(&[x]);
        assert!((out[0].re - x.sin()).abs() < 1e-15);
        assert!((out[0].im - x.cos()).abs() < 1e-15);
        assert!((out[1].re - x.sqrt()).abs() < 1e-15);
        assert!((out[1].im - x.exp()).abs() < 1e-15);
        assert!((out[2].re - x.ln()).abs() < 1e-15);
        assert!((out[2].im + x.sin()).abs() < 1e-15);
        assert!((out[3].re - (x.cos() - x.sin())).abs() < 1e-15);
        assert!((out[3].im - x.sin() / x.cos()).abs() < 1e-15);
        assert!((out[4].re - x * x).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "parameter vector too short")]
    fn parameter_underflow_panics() {
        tiny_program().run_alloc::<f64>(&[]);
    }

    #[test]
    #[should_panic(expected = "output buffer too small")]
    fn output_underflow_panics() {
        let p = tiny_program();
        let mut scratch = vec![0.0f64; p.num_regs];
        let mut out: Vec<Complex<f64>> = Vec::new();
        p.run(&[1.0], &mut scratch, &mut out);
    }
}
