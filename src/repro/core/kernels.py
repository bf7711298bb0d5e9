"""Two constants that the campaign benchmark's host record reads.

``perfbench/run.py`` records :data:`USE_NUMBA` and
:data:`NUMBA_STATUS` with every run.  The ensemble hot loops
(:func:`repro.faults.current_pulse.trapezoid_currents` and the
ensemble branch of :meth:`repro.analog.lti.LTISystem.step_siso`) have
one implementation, in NumPy, so the flag is always False.  The module
goes once that record drops the two fields.
"""

#: Always False: no compiled ensemble path exists.
USE_NUMBA = False

#: Why :data:`USE_NUMBA` is False.
NUMBA_STATUS = "not used: NumPy is the only ensemble path"
